"""String-keyed registry of every longitudinal protocol (mirror of
:mod:`repro.experiments.registry`).

``PROTOCOLS`` maps stable names to shared :class:`LongitudinalProtocol`
singletons; consumers resolve names through :func:`get_protocol`, filter by
capability through :func:`list_protocols`, and normalize heterogeneous
runner specifications (names, protocol instances, plain callables) through
:func:`resolve_runner` — the seam that lets ``run_trials`` / ``sweep`` /
``Scenario.run`` / the CLI accept any of the three without special-casing.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Union

from repro.protocols.adapters import (
    BunComposedProtocol,
    CategoricalItemProtocol,
    CentralTreeProtocol,
    ErlingssonProtocol,
    FutureRandObjectProtocol,
    FutureRandProtocol,
    HashedFrequencyItemProtocol,
    HeavyHittersProtocol,
    MemoizationProtocol,
    NaiveSplitProtocol,
    NaiveUnsplitProtocol,
    OfflineTreeProtocol,
    SketchMedianProtocol,
)
from repro.protocols.base import LongitudinalProtocol

__all__ = [
    "PROTOCOLS",
    "get_protocol",
    "list_protocols",
    "resolve_runner",
    "unsupported_option",
    "ProtocolLike",
]

#: Anything ``resolve_runner`` can turn into a named runner: a registry name,
#: a protocol instance, or a bare ``(states, params, rng) -> ProtocolResult``
#: callable (the historical signature, kept for back-compat).
ProtocolLike = Union[str, LongitudinalProtocol, Callable]


def _build_registry() -> dict[str, LongitudinalProtocol]:
    protocols = (
        FutureRandProtocol(),
        FutureRandObjectProtocol(),
        BunComposedProtocol(),
        ErlingssonProtocol(),
        NaiveSplitProtocol(),
        NaiveUnsplitProtocol(),
        MemoizationProtocol(),
        OfflineTreeProtocol(),
        CentralTreeProtocol(),
        CategoricalItemProtocol(),
        HashedFrequencyItemProtocol(),
        SketchMedianProtocol(),
        HeavyHittersProtocol(),
    )
    registry: dict[str, LongitudinalProtocol] = {}
    for protocol in protocols:
        if protocol.name in registry:
            raise ValueError(f"duplicate protocol name {protocol.name!r}")
        registry[protocol.name] = protocol
    return registry


PROTOCOLS: dict[str, LongitudinalProtocol] = _build_registry()


def get_protocol(name: str) -> LongitudinalProtocol:
    """Return the registered protocol for ``name``, or raise ``KeyError``."""
    protocol = PROTOCOLS.get(name)
    if protocol is None:
        known = ", ".join(sorted(PROTOCOLS))
        raise KeyError(f"unknown protocol {name!r}; known: {known}")
    return protocol


def list_protocols(
    *,
    online: Optional[bool] = None,
    privacy_model: Optional[str] = None,
    sequence_ldp: Optional[bool] = None,
) -> list[str]:
    """Return registry names matching every given capability filter.

    >>> "future_rand" in list_protocols(online=True, privacy_model="local")
    True
    >>> list_protocols(privacy_model="central")
    ['central_tree']
    """
    names = []
    for name, protocol in PROTOCOLS.items():
        if online is not None and protocol.online != online:
            continue
        if privacy_model is not None and protocol.privacy_model != privacy_model:
            continue
        if sequence_ldp is not None and protocol.sequence_ldp != sequence_ldp:
            continue
        names.append(name)
    return names


def unsupported_option(
    runners: Mapping[str, object], option: str
) -> tuple[list[str], list[str]]:
    """Find the runners that cannot take the execution option ``option``.

    Support is advertised by a truthy ``supports_<option>`` attribute (the
    protocol flags checked by lint rule REP107, or a function attribute as on
    ``run_batch_engine``); a runner without it does not support the option.
    Returns ``(lacking, capable)``: the sorted names in ``runners`` that lack
    support (empty when all have it) and the sorted registry names that have
    it, for the error message.

    >>> unsupported_option({"erlingsson": PROTOCOLS["erlingsson"]}, "kernel")[0]
    ['erlingsson']
    >>> "future_rand" in unsupported_option({}, "chunk_size")[1]
    True
    """
    flag = f"supports_{option}"
    lacking = sorted(
        name for name, runner in runners.items() if not getattr(runner, flag, False)
    )
    capable = sorted(
        name for name, protocol in PROTOCOLS.items() if getattr(protocol, flag)
    )
    return lacking, capable


#: Retired pre-registry extension classes and the registry entry that
#: replaced each.  ``resolve_runner`` rejects these up front — a legacy
#: class smuggled into a sweep used to die deep inside a worker process
#: with an unpicklable traceback.
_LEGACY_EXTENSION_ALTERNATIVES: dict[str, str] = {
    "CategoricalLongitudinalProtocol": "categorical",
    "HashedFrequencyProtocol": "hashed_frequency",
    "MedianSketchProtocol": "sketch_median",
    "HeavyHitterTracker": "heavy_hitters",
}


def _reject_legacy_extension(spec: object) -> None:
    """Raise ``TypeError`` if ``spec`` is a retired ``repro.extensions`` class.

    Catches the class itself, instances, and bound methods (e.g.
    ``MedianSketchProtocol(...).run``) — every shape a pre-PR-6 call site
    would plausibly hand to ``sweep``/``run_trials``.
    """
    candidate = getattr(spec, "__self__", spec)  # unwrap bound methods
    cls = candidate if isinstance(candidate, type) else type(candidate)
    if cls.__name__ in _LEGACY_EXTENSION_ALTERNATIVES and getattr(
        cls, "__module__", ""
    ).startswith("repro.extensions"):
        alternative = _LEGACY_EXTENSION_ALTERNATIVES[cls.__name__]
        raise TypeError(
            f"{cls.__name__} is a legacy extensions class and cannot be used "
            f"as a protocol runner; use the registry entry "
            f"{alternative!r} instead (repro.protocols.get_protocol"
            f"({alternative!r}), optionally .with_domain_size(m)). "
            f"Registry alternatives for all legacy classes: "
            + ", ".join(
                f"{old} -> {new!r}"
                for old, new in sorted(_LEGACY_EXTENSION_ALTERNATIVES.items())
            )
        )


def resolve_runner(spec: ProtocolLike) -> tuple[str, Callable]:
    """Normalize ``spec`` into a ``(name, runner)`` pair.

    * a string resolves through the registry (``KeyError`` if unknown);
    * a :class:`LongitudinalProtocol` instance is used directly under its
      own name;
    * any other callable (the historical plain-runner path) is passed
      through under its ``__name__`` — except retired ``repro.extensions``
      classes, which are rejected with a pointer to their registry
      replacements.
    """
    if isinstance(spec, str):
        protocol = get_protocol(spec)
        # Defensive: a legacy class smuggled into the registry dict (e.g. by
        # a test fixture or a fork) still gets the readable rejection.
        _reject_legacy_extension(protocol)
        return spec, protocol
    if isinstance(spec, LongitudinalProtocol):
        return spec.name, spec
    _reject_legacy_extension(spec)
    if callable(spec):
        return getattr(spec, "__name__", repr(spec)), spec
    raise TypeError(
        f"cannot resolve {spec!r} into a protocol runner; expected a registry "
        "name, a LongitudinalProtocol, or a callable"
    )
