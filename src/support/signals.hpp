#pragma once

#include "support/thread_pool.hpp"

/// Graceful-shutdown plumbing for the command-line tools.
///
/// `installShutdownHandlers` routes SIGINT/SIGTERM into a process-wide
/// `CancellationToken` (an async-signal-safe atomic store). Long-running
/// searches already poll cancellation tokens cooperatively, so chaining the
/// run's root token to `shutdownToken()` turns Ctrl-C / kill into a clean
/// unwind: the run returns best-so-far, the caller still writes its report,
/// and the process exits through the normal exit-code contract instead of
/// dying mid-write.
///
/// A *second* SIGINT/SIGTERM force-quits immediately (_exit) for the case
/// where the cooperative unwind itself is what the operator wants to kill.
namespace hca {

/// The process-wide shutdown token. Never cancelled until a handler
/// installed by `installShutdownHandlers` sees a signal.
[[nodiscard]] const CancellationToken& shutdownToken();

/// Installs SIGINT/SIGTERM handlers (idempotent).
void installShutdownHandlers();

/// The first shutdown signal received, or 0 when none arrived yet.
[[nodiscard]] int shutdownSignal();

}  // namespace hca
