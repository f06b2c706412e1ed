#pragma once

/// Hot-path discipline annotations, consumed by tools/netseer_lint (on
/// clang they also attach annotate attributes to the AST). They expand
/// to nothing under GCC, exactly like util/thread_annotations.h: plain
/// builds compile the same code; only the analyzer assigns them meaning.
///
/// The contracts the linter enforces (see DESIGN.md "Static analysis
/// layer" and tools/netseer_lint):
///
///   NETSEER_HOT
///     This function is a steady-state hot path. It must not reach
///     operator new / malloc / make_unique / make_shared / allocating
///     container mutation through any same-TU call chain, and it must
///     never call a NETSEER_BLOCKING function or block under a lock. The
///     event engine's fire loop, the packet pool's acquire/release, the
///     switch and host per-hop path, and the detect window rollover
///     carry this.
///     Not caught: an implicit conversion of a lambda to std::function,
///     which allocates once the capture outgrows the library's inline
///     buffer — take a per-call callback as a template parameter.
///
///   NETSEER_HOT_ALLOW_INIT
///     Sanctioned allocation escape reachable from NETSEER_HOT code:
///     warmup/growth paths (slab chunk materialization, free-list
///     buildup, recycled-buffer top-up) that allocate only until the
///     steady-state population stabilizes. The hot-alloc pass stops its
///     call-graph walk at these functions instead of flagging them.
///
///   NETSEER_BLOCKING
///     This function may block — it performs I/O or waits while holding
///     a capability (WAL fsync under the WAL mutex, segment persistence
///     under the maintenance mutex, checkpoint write-then-rename under
///     the service mutex). Calling a NETSEER_BLOCKING function while
///     holding a lock requires the caller to be NETSEER_BLOCKING too, so
///     blocking-under-lock is always explicit and greppable; calling one
///     from a NETSEER_HOT function is an error outright.
///
/// Per-line opt-out, for amortized-allocation sites the passes cannot
/// classify (e.g. a free-list push_back whose capacity is bounded by the
/// slab high-water mark):
///
///   free_.push_back(pkt);  // NETSEER_LINT_ALLOW(hot-alloc): bounded by slab
///
/// The comment must name the pass it silences and carry a reason.
#if defined(__clang__)
#define NETSEER_DISCIPLINE_ANNOTATION_(x) __attribute__((annotate(x)))
#else
#define NETSEER_DISCIPLINE_ANNOTATION_(x)
#endif

#define NETSEER_HOT NETSEER_DISCIPLINE_ANNOTATION_("netseer::hot")
#define NETSEER_HOT_ALLOW_INIT NETSEER_DISCIPLINE_ANNOTATION_("netseer::hot_allow_init")
#define NETSEER_BLOCKING NETSEER_DISCIPLINE_ANNOTATION_("netseer::blocking")
