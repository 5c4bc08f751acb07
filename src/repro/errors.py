"""Exception hierarchy for the Cyclops reproduction.

All library errors derive from :class:`CyclopsError` so callers can catch a
single base class. Specific subclasses mark the subsystem that raised them;
they carry plain-language messages because most surface to experiment
drivers and tests rather than being handled programmatically.
"""

from __future__ import annotations


class CyclopsError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(CyclopsError):
    """An invalid or inconsistent :class:`~repro.config.ChipConfig`."""


class AddressError(CyclopsError):
    """A malformed, out-of-range, or misaligned address."""


class InterestGroupError(AddressError):
    """An interest-group byte that does not decode to a valid cache set."""


class MemoryFault(CyclopsError):
    """An access to unpopulated or disabled physical memory."""


class CacheConfigError(CyclopsError):
    """An invalid cache geometry or way-partition request."""

class IsaError(CyclopsError):
    """Base class for ISA-layer errors."""


class AssemblerError(IsaError):
    """A parse or semantic error in assembly source."""


class EncodingError(IsaError):
    """An instruction that cannot be encoded or decoded."""


class ExecutionError(IsaError):
    """A runtime fault while interpreting a program (bad opcode, trap...)."""


class KernelError(CyclopsError):
    """Resident-kernel errors: thread exhaustion, bad join, stack overflow."""


class AllocationError(KernelError):
    """The single-address-space heap cannot satisfy a request."""


class BarrierError(CyclopsError):
    """Misuse of a hardware or software barrier (bad id, bad membership)."""


class SimulationError(CyclopsError):
    """Engine-level invariant violation (time going backwards, deadlock)."""


class DeadlockError(SimulationError):
    """All live threads are blocked and no event can make progress."""


class WorkloadError(CyclopsError):
    """A workload was asked to run with unsatisfiable parameters."""


class SanitizerError(CyclopsError):
    """Misuse of the coherence sanitizer (double attach, bad report path)."""


class TelemetryError(CyclopsError):
    """Misuse of the metrics/tracing/profiling subsystem."""


class JobError(CyclopsError):
    """A simulation job failed: bad spec, crashed worker, timeout, ..."""


class ExploreError(CyclopsError):
    """An invalid :class:`~repro.explore.ChipSpec` or sweep grid."""


class PdesError(SimulationError):
    """The parallel-DES layer cannot partition or run this simulation."""


class PdesCrashError(PdesError):
    """A domain process of a parallel run died (crash or lost transport)."""
