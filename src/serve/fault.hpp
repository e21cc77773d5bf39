// Shared fault classification for the serving layer.
//
// One taxonomy, one decision point: FleetServer::execute_batch makes every
// retry/quarantine/deadline decision from this classifier, so a fault class
// added here changes the serving path in exactly one place.  See DESIGN.md
// "Fault tolerance" for the full class matrix.
#pragma once

#include <exception>

namespace temco::serve {

/// What a batch failure means for the retry/quarantine machinery.
enum class FaultClass {
  kTransient,   ///< spurious and non-corrupting: safe to re-execute
  kCorrupting,  ///< the session's memory is suspect: quarantine it
  kDeadline,    ///< the batch ran out of SLO: typed resolution, no retry
  kCancelled,   ///< the run was abandoned (watchdog/shutdown)
  kTerminal,    ///< anything else: fail the batch, keep the session
};

/// Maps a caught batch-execution error to its fault class.
FaultClass classify_fault(const std::exception_ptr& error);

}  // namespace temco::serve
