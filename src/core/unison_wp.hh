/**
 * @file
 * Compatibility alias: the way-predictor ablations are values of
 * `unison`'s `wayPolicy` knob (see unison_cache.hh), and there is one
 * Unison cache class. perfbench/runner.cpp still includes this header
 * and names `UnisonWpCache`; a change to that benchmark can drop both
 * and delete this file.
 */

#ifndef UNISON_CORE_UNISON_WP_HH
#define UNISON_CORE_UNISON_WP_HH

#include "core/unison_cache.hh"

namespace unison {

using UnisonWpCache = UnisonCache;

} // namespace unison

#endif // UNISON_CORE_UNISON_WP_HH
