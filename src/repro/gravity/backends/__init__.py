"""Pluggable compute backends for the force kernels.

The tree walk produces pair lists; a *backend* turns them into
accumulated forces.  ``SimulationConfig.backend`` selects one by name:

- ``"compiled"`` -- the C group-list kernels, built with the host's
  ``cc`` on first use (:mod:`.compiled`);
- ``"numpy"`` -- the workspace ufunc kernels: the float64 oracle and
  the fallback where no compiler exists (:mod:`.numpy_backend`);
- ``"auto"`` (the default) -- ``compiled`` where it builds, else
  ``numpy``.

Registry rules: registration is by ``backend.name`` and never builds
anything; :func:`get_backend` raises ``ValueError`` for unknown names and
:class:`BackendUnavailable` (with the probe's reason) for
known-but-unusable ones.  Projects and tests can
:func:`register_backend` their own implementations; see
``docs/PERFORMANCE.md`` §6 for the contract a backend must honour.
"""

from __future__ import annotations

import re

from .base import BackendUnavailable, ComputeBackend
from .compiled import CompiledBackend
from .numpy_backend import NumpyBackend

#: The name that resolves to the fastest backend this host can run.
AUTO = "auto"

#: Name-keyed backend singletons, in registration order.
_REGISTRY: dict[str, ComputeBackend] = {}

#: Registry keys are config values and span attributes: lowercase slugs
#: only, so the base class's ``"?"`` placeholder can never be registered.
_NAME_RE = re.compile(r"[a-z0-9][a-z0-9_.-]*")


def register_backend(backend: ComputeBackend) -> ComputeBackend:
    """Add ``backend`` to the registry under ``backend.name``.

    Re-registering a name replaces the previous entry (latest wins),
    which is how tests shadow a built-in with an instrumented double.
    Returns the backend for decorator-ish chaining.
    """
    name = getattr(backend, "name", None)
    if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
        raise ValueError(f"backend name {name!r} is not a valid registry "
                         f"key (lowercase slug, pattern {_NAME_RE.pattern})")
    _REGISTRY[name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a registered backend (no-op for unknown names)."""
    _REGISTRY.pop(name, None)


def registered_backends() -> tuple[str, ...]:
    """Every registered backend name, available or not."""
    return tuple(_REGISTRY)


def available_backends() -> tuple[str, ...]:
    """Registered backends whose runtime is usable on this host."""
    return tuple(n for n, b in _REGISTRY.items() if b.available())


def get_backend(name) -> ComputeBackend:
    """Resolve ``name`` to a usable backend instance.

    Accepts a :class:`ComputeBackend` instance as a pass-through so hot
    paths can resolve once and hand the object down.  ``"auto"`` is
    ``compiled`` where it is available, else ``numpy``.  Raises
    ``ValueError`` for unregistered names and
    :class:`BackendUnavailable` for registered ones whose runtime probe
    fails.
    """
    if isinstance(name, ComputeBackend):
        return name
    if name == AUTO:
        compiled = _REGISTRY.get("compiled")
        name = "compiled" if compiled and compiled.available() else "numpy"
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ValueError(f"unknown compute backend {name!r}; "
                         f"registered: {registered_backends()}")
    if not backend.available():
        raise BackendUnavailable(
            f"compute backend {name!r} is not usable here: "
            f"{backend.unavailable_reason()}")
    return backend


register_backend(NumpyBackend())
register_backend(CompiledBackend())

__all__ = [
    "AUTO",
    "BackendUnavailable",
    "CompiledBackend",
    "ComputeBackend",
    "NumpyBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "registered_backends",
    "unregister_backend",
]
