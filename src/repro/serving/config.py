"""The serving front-end's configuration surface.

:class:`ServingConfig` is a frozen value object, designed rather than
accreted: every knob of the HTTP front-end — bind address, admission
batching, backpressure thresholds, protocol limits — lives here, and the
object composes into :class:`repro.config.RuntimeConfig` (``serving=``)
so one ``RuntimeConfig`` describes a whole deployment, storage to socket.
``RuntimeConfig.build_server()`` is the one way to get a
:class:`~repro.serving.server.PlatformServer`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

__all__ = ["ServingConfig"]


@dataclass(frozen=True)
class ServingConfig:
    """How one :class:`~repro.serving.server.PlatformServer` runs.

    Network: ``host``/``port`` are the bind address; port ``0`` asks the
    OS for an ephemeral port (the bound address is reported by
    :attr:`PlatformServer.address` after start — the test and bench
    default).

    Admission batching: writes are admitted into a bounded queue that a
    single drainer empties once per *tick*.  After the first queued write
    arrives the drainer keeps collecting for ``batch_window`` seconds (up
    to ``max_batch`` operations) and applies the whole burst inside one
    engine continuation per project — thousands of concurrent submissions
    cost one evaluation, not one each.  The window opens only while the
    server is busy — the previous tick ended less than ``batch_window``
    ago — so a write reaching an idle server is applied at once, with
    whatever is already queued (like PostgreSQL's ``commit_delay``, which
    waits only when other transactions are active).  ``batch_window=0``
    never waits: "whatever is queued right now".

    Backpressure: a write is rejected with ``429 Retry-After`` when the
    admission queue already holds ``queue_depth`` operations, or when the
    queue has been continuously non-empty for longer than
    ``max_round_lag`` seconds (the drainer's ticks are falling behind the
    arrival rate).  ``retry_after`` is the integer number of seconds put
    in the ``Retry-After`` header.

    Protocol limits: requests whose header block exceeds
    ``max_header_bytes`` or whose body exceeds ``max_body_bytes`` are
    refused (431/413) before touching platform state.
    """

    host: str = "127.0.0.1"
    port: int = 0
    batch_window: float = 0.005
    max_batch: int = 512
    queue_depth: int = 1024
    max_round_lag: float = 0.5
    retry_after: int = 1
    max_header_bytes: int = 32768
    max_body_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be within [0, 65535], got {self.port}")
        if not self.host:
            raise ValueError("host must be non-empty")
        if self.batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {self.batch_window}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.max_round_lag <= 0:
            raise ValueError(f"max_round_lag must be > 0, got {self.max_round_lag}")
        if self.retry_after < 0:
            raise ValueError(f"retry_after must be >= 0, got {self.retry_after}")
        if self.max_header_bytes < 256:
            raise ValueError(
                f"max_header_bytes must be >= 256, got {self.max_header_bytes}"
            )
        if self.max_body_bytes < 0:
            raise ValueError(
                f"max_body_bytes must be >= 0, got {self.max_body_bytes}"
            )

    def with_changes(self, **changes: Any) -> "ServingConfig":
        """A copy with ``changes`` applied (frozen-dataclass ``replace``)."""
        return replace(self, **changes)
