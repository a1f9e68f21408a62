// cgra/chaos.hpp — the public face of deterministic chaos injection.
//
// A ChaosPlan scripts failures (connection resets, frame corruption,
// worker crashes, pool-lease failures, tile kills) against named hook
// points compiled into the serving stack; a ChaosInjector replays the
// plan deterministically from its seed.  Wire one injector into
// ServerOptions / ClientOptions / ServiceOptions to harden-test a
// deployment, or leave the pointers null for production builds (one
// null test per hook).
//
// See tests/test_chaos.cpp for per-hook examples and
// bench/bench_chaos_serving.cpp for a full chaos experiment asserting
// zero lost replies under a seeded kill schedule.
#pragma once

#include "chaos/chaos.hpp"
