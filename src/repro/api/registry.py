"""Construction registry: every construction under one string name.

The facade's first layer.  Each construction in :mod:`repro.constructions`
is registered under a stable string name with a typed parameter spec, so the
whole catalogue is reachable without imports::

    >>> from repro.api import build, available_constructions
    >>> system = build("mgrid", n=49, b=3)
    >>> system.name
    'M-Grid(7x7, b=3)'
    >>> "tree" in available_constructions()
    True

A :class:`SystemSpec` is the declarative, JSON-stable description of a
system — ``(construction name, parameters)`` — and round-trips through the
registry: ``spec_of(build(spec)) == spec``.  Specs are what the measure
dispatcher (:mod:`repro.api.measures`), the workload runner
(:mod:`repro.api.workloads`) and the ``python -m repro`` CLI all accept, so
an experiment is reproducible from a dict.

Every entry also states its family's *natural shape* — which member of the
family sits nearest a universe size ``n`` — and :func:`shape_at` is the one
place that answers it: the paper tables, the selector and epoch rebinding all
size their systems through it (``docs/analysis.md`` has the table).  The
``n`` alias of the ``side``-shaped constructions is the same rule
(``build("grid", n=25)`` is ``build("grid", side=5)``), restricted to
universe sizes the family contains exactly, i.e. perfect squares.

Parameter validation is uniform: a wrong name, a missing required parameter
or an out-of-range value raises
:class:`~repro.exceptions.InvalidParameterError` (which subclasses both
``ComputationError`` and ``ValueError``); infeasible *shapes* (e.g. an
M-Grid asked to mask more failures than a grid of that side can) keep
raising the construction's own
:class:`~repro.exceptions.ConstructionError`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.constructions.boost_fpp import BoostedFPP
from repro.constructions.crumbling_wall import CrumblingWall
from repro.constructions.fpp import FiniteProjectivePlane
from repro.constructions.grid import MaskingGrid, RegularGrid
from repro.constructions.mgrid import MGrid
from repro.constructions.mpath import MPath
from repro.constructions.recursive_threshold import RecursiveThreshold
from repro.constructions.threshold import (
    ThresholdQuorumSystem,
    majority,
    masking_threshold,
)
from repro.constructions.tree import TreeQuorumSystem
from repro.constructions.wheel import WheelQuorumSystem
from repro.core.quorum_system import ImplicitQuorumSystem, QuorumSystem
from repro.exceptions import InvalidParameterError

__all__ = [
    "ConstructionEntry",
    "ParamSpec",
    "SystemSpec",
    "available_constructions",
    "build",
    "get_entry",
    "register",
    "shape_at",
    "spec_of",
]


@dataclass(frozen=True)
class ParamSpec:
    """One typed parameter of a registered construction."""

    name: str
    type: type = int
    required: bool = True
    default: object = None
    doc: str = ""

    def coerce(self, value: object) -> object:
        """Coerce/validate one user-supplied value to the declared type."""
        if self.type is int:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InvalidParameterError(
                    f"parameter {self.name!r} must be an integer, got {value!r}"
                )
            if isinstance(value, float):
                if not value.is_integer():
                    raise InvalidParameterError(
                        f"parameter {self.name!r} must be an integer, got {value!r}"
                    )
                value = int(value)
            return int(value)
        if self.type is tuple:
            try:
                return tuple(int(item) for item in value)
            except (TypeError, ValueError) as exc:
                raise InvalidParameterError(
                    f"parameter {self.name!r} must be a sequence of integers, "
                    f"got {value!r}"
                ) from exc
        return self.type(value)


@dataclass(frozen=True)
class SystemSpec:
    """A declarative, JSON-stable description of a quorum system.

    Attributes
    ----------
    construction:
        Registry name (``available_constructions()``).
    params:
        Construction parameters, canonicalised by :func:`build` /
        :func:`spec_of` (aliases resolved, defaults filled in).
    """

    construction: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))

    def to_dict(self) -> dict:
        """Return a JSON-serialisable dict (tuples become lists)."""
        return {
            "construction": self.construction,
            "params": {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in sorted(self.params.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SystemSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        if "construction" not in payload:
            raise InvalidParameterError(
                f"a system spec needs a 'construction' key, got {sorted(payload)}"
            )
        return cls(
            construction=str(payload["construction"]),
            params=dict(payload.get("params", {})),
        )

    def build(self) -> QuorumSystem:
        """Instantiate the system this spec describes."""
        return build(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SystemSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        normalised = tuple(
            (key, tuple(value) if isinstance(value, (list, tuple)) else value)
            for key, value in sorted(self.params.items())
        )
        return hash((self.construction, normalised))


@dataclass(frozen=True)
class ConstructionEntry:
    """One registered construction.

    Attributes
    ----------
    name:
        Registry key.
    factory:
        Callable receiving the canonical parameters as keywords.
    params:
        The typed parameter specs, in canonical order.
    summary:
        One-line description for tables and ``python -m repro list``.
    masking:
        Whether the construction can mask ``b > 0`` Byzantine failures
        (regular systems like tree/wheel/grid/fpp cannot; they appear in the
        registry for completeness and as boosting inputs, see
        ``docs/api.md``).
    extract:
        Given a built instance, return its canonical parameter dict
        (the inverse of ``factory`` — what makes specs round-trippable).
    shape:
        The family's natural shape, ``(params, n) -> params``: the member
        nearest universe size ``n``, every non-size parameter of ``params``
        kept (see :func:`shape_at`).
    instance_of:
        The concrete class produced, used by :func:`spec_of` dispatch.
    """

    name: str
    factory: Callable[..., QuorumSystem]
    params: tuple[ParamSpec, ...]
    summary: str
    masking: bool
    extract: Callable[[QuorumSystem], dict]
    shape: Callable[[dict, int], dict]
    instance_of: type | None = None

    def normalise(self, raw: dict) -> dict:
        """Resolve aliases, apply defaults, coerce types, reject strays."""
        supplied = {key: value for key, value in raw.items() if value is not None}
        known = {spec.name for spec in self.params}
        if "n" in supplied and "side" in known:
            if "side" in supplied:
                raise InvalidParameterError(
                    f"{self.name}: pass either 'side' or its alias 'n', not both"
                )
            n = supplied.pop("n")
            try:
                n = int(n)
            except (TypeError, ValueError) as exc:
                raise InvalidParameterError(
                    f"{self.name}: 'n' must be an integer, got {n!r}"
                ) from exc
            supplied = self.shape(supplied, n)
            side = supplied["side"]
            if side * side != n:
                raise InvalidParameterError(
                    f"{self.name} is built over a side x side grid; "
                    f"n={n} is not a perfect square (nearest: {side * side})"
                )
        stray = sorted(set(supplied) - known)
        if stray:
            raise InvalidParameterError(
                f"{self.name} does not take parameter(s) {stray}; "
                f"it takes {sorted(known)}"
            )
        canonical: dict = {}
        for spec in self.params:
            if spec.name in supplied:
                canonical[spec.name] = spec.coerce(supplied[spec.name])
            elif spec.required:
                raise InvalidParameterError(
                    f"{self.name} requires parameter {spec.name!r} "
                    f"({spec.doc or spec.type.__name__})"
                )
            elif spec.default is not None:
                canonical[spec.name] = spec.default
        return canonical


_REGISTRY: dict[str, ConstructionEntry] = {}


def register(entry: ConstructionEntry) -> ConstructionEntry:
    """Add an entry to the registry (name collisions are an error)."""
    if entry.name in _REGISTRY:
        raise InvalidParameterError(
            f"construction {entry.name!r} is already registered"
        )
    _REGISTRY[entry.name] = entry
    return entry


def available_constructions() -> tuple[str, ...]:
    """Return the registered construction names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_entry(name: str) -> ConstructionEntry:
    """Return the registry entry for ``name``.

    Raises
    ------
    InvalidParameterError
        For unknown names (the message lists the catalogue).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown construction {name!r}; available: "
            f"{', '.join(available_constructions())}"
        ) from None


def build(spec: SystemSpec | str, /, **params: object) -> QuorumSystem:
    """Build a quorum system from a registry name or a :class:`SystemSpec`.

    ``build("mgrid", n=49, b=3)`` and
    ``build(SystemSpec("mgrid", {"side": 7, "b": 3}))`` are equivalent.
    """
    if isinstance(spec, SystemSpec):
        if params:
            raise InvalidParameterError(
                "pass parameters inside the SystemSpec or as keywords, not both"
            )
        name, raw = spec.construction, spec.params
    elif isinstance(spec, str):
        name, raw = spec, params
    else:
        raise InvalidParameterError(
            f"build() takes a construction name or a SystemSpec, got {type(spec).__name__}"
        )
    entry = get_entry(name)
    canonical = entry.normalise(raw)
    return entry.factory(**canonical)


def shape_at(name: str, params: dict, n: int) -> dict:
    """Return the parameters of family ``name``'s member nearest universe size ``n``.

    ``params`` carries the family's non-size parameters (``b`` of a grid,
    ``k``/``l`` of ``rt``, ``q`` of ``boostfpp``; all of them are kept) and
    the entry's shape rule supplies the size parameter:

    ====================================  =================================
    construction                          shape at ``n``
    ====================================  =================================
    ``threshold`` ``majority`` ``wheel``  ``n`` itself
    ``grid`` ``masking-grid`` ``mgrid``   ``side = floor(sqrt(n))``
    ``mpath``
    ``rt``                                ``depth = round(log_k n)``, >= 1
    ``tree``                              largest ``depth`` with
                                          ``2^(depth+1) - 1 <= n``
    ``fpp``                               largest ``q`` with
                                          ``q^2 + q + 1 <= n``
    ``boostfpp``                          largest ``b >= 1`` with
                                          ``(4b+1)(q^2+q+1) <= n``
    ``crumbling-wall``                    the row profile, tail rows trimmed
                                          or the last row widened to ``n``
    ====================================  =================================

    The result is not validated here: ``build`` it and the constructor
    decides whether that member exists; a caller that needs exactly ``n``
    servers compares the built system's ``n`` with its request.

    >>> shape_at("mgrid", {"b": 3}, 50)
    {'b': 3, 'side': 7}
    >>> shape_at("boostfpp", {"q": 3}, 1024)
    {'q': 3, 'b': 19}
    """
    return get_entry(name).shape(dict(params), int(n))


def spec_of(system: QuorumSystem) -> SystemSpec:
    """Return the canonical :class:`SystemSpec` of a built system.

    The inverse of :func:`build`: for every registered construction,
    ``spec_of(build(spec)) == spec`` (with aliases resolved and defaults
    filled in).  An :class:`~repro.core.quorum_system.ImplicitQuorumSystem`
    resolves to its *base* construction's spec.

    Raises
    ------
    InvalidParameterError
        When the system's class is not in the registry (e.g. an ad-hoc
        :class:`~repro.core.quorum_system.ExplicitQuorumSystem`).
    """
    if isinstance(system, ImplicitQuorumSystem):
        system = system.base
    for entry in _REGISTRY.values():
        if entry.instance_of is not None and type(system) is entry.instance_of:
            return SystemSpec(entry.name, entry.extract(system))
    raise InvalidParameterError(
        f"{type(system).__name__} is not a registered construction; "
        "explicit/composed systems have no canonical spec"
    )


# ----------------------------------------------------------------------
# Natural shapes (:func:`shape_at`): the size parameter as a function of n.
# ----------------------------------------------------------------------
def _universe_shape(params: dict, n: int) -> dict:
    return {**params, "n": n}


def _square_shape(params: dict, n: int) -> dict:
    return {**params, "side": math.isqrt(n)}


def _rt_shape(params: dict, n: int) -> dict:
    return {**params, "depth": max(1, round(math.log(n, params["k"])))}


def _tree_shape(params: dict, n: int) -> dict:
    return {**params, "depth": (n + 1).bit_length() - 2}


def _plane_shape(params: dict, n: int) -> dict:
    return {**params, "q": (math.isqrt(4 * n - 3) - 1) // 2}


def _boost_shape(params: dict, n: int) -> dict:
    points = params["q"] ** 2 + params["q"] + 1
    return {**params, "b": max(1, (n // points - 1) // 4)}


def _wall_shape(params: dict, n: int) -> dict:
    rows = [int(width) for width in params["rows"]]
    excess = sum(rows) - n
    while rows and excess >= rows[-1]:
        excess -= rows.pop()
    if rows:
        rows[-1] -= excess  # negative excess widens the last row
    return {**params, "rows": tuple(rows)}


# ----------------------------------------------------------------------
# The catalogue.  ``masking_threshold`` and ``majority`` produce
# ThresholdQuorumSystem instances; ``spec_of`` maps them all onto the one
# "threshold" entry, which canonicalises to ``b`` when the threshold has
# the [MR98a] masking form and to a raw ``k`` otherwise.
# ----------------------------------------------------------------------
def _threshold_params(system: ThresholdQuorumSystem) -> dict:
    # Report the [MR98a] masking form only when it rebuilds this very
    # threshold; a raw high threshold (e.g. 8-of-9) round-trips through "k".
    # Corollary 3.7's b meets 4b <= (2k - n - 1) + 2(n - k) = n - 1, so
    # masking_threshold accepts it.
    n, k, b = system.n, system.k, system.masking_bound()
    if masking_threshold(n, b).k == k:
        return {"n": n, "b": b}
    return {"n": n, "k": k}


def _make_threshold(
    n: int, b: int | None = None, k: int | None = None
) -> ThresholdQuorumSystem:
    if n < 1:
        raise InvalidParameterError(f"universe size must be >= 1, got {n}")
    if b is not None and k is not None:
        raise InvalidParameterError(
            "threshold takes either the masking parameter 'b' or a raw "
            "threshold 'k', not both"
        )
    if k is not None:
        return ThresholdQuorumSystem(n, k)
    b = 0 if b is None else b
    if b < 0:
        raise InvalidParameterError(f"masking parameter must be >= 0, got {b}")
    return masking_threshold(n, b)


register(
    ConstructionEntry(
        name="threshold",
        factory=_make_threshold,
        params=(
            ParamSpec("n", doc="number of servers"),
            ParamSpec("b", required=False, doc="masking parameter (4b < n); default 0"),
            ParamSpec("k", required=False, doc="raw threshold (alternative to b)"),
        ),
        summary="[MR98a] Threshold: ceil((n+2b+1)/2)-of-n; optimal resilience, load ~ 1/2",
        masking=True,
        extract=_threshold_params,
        shape=_universe_shape,
        instance_of=ThresholdQuorumSystem,
    )
)


def _make_majority(n: int) -> ThresholdQuorumSystem:
    if n < 1:
        raise InvalidParameterError(f"universe size must be >= 1, got {n}")
    return majority(n)


register(
    ConstructionEntry(
        name="majority",
        factory=_make_majority,
        params=(ParamSpec("n", doc="number of servers"),),
        summary="simple majority (threshold with b=0)",
        masking=False,
        extract=lambda system: {"n": system.n},
        shape=_universe_shape,
        instance_of=None,  # spec_of reports it as "threshold" with b=0
    )
)


register(
    ConstructionEntry(
        name="grid",
        factory=RegularGrid,
        params=(ParamSpec("side", doc="grid side (n = side^2)"),),
        summary="[MR98a] regular grid baseline: one row + one column; b = 0",
        masking=False,
        extract=lambda system: {"side": system.side},
        shape=_square_shape,
        instance_of=RegularGrid,
    )
)

register(
    ConstructionEntry(
        name="masking-grid",
        factory=MaskingGrid,
        params=(
            ParamSpec("side", doc="grid side (n = side^2)"),
            ParamSpec("b", required=False, default=1, doc="masking parameter"),
        ),
        summary="[MR98a] masking grid: 2b+1 rows + one column",
        masking=True,
        extract=lambda system: {"side": system.side, "b": system.b},
        shape=_square_shape,
        instance_of=MaskingGrid,
    )
)

register(
    ConstructionEntry(
        name="mgrid",
        factory=MGrid,
        params=(
            ParamSpec("side", doc="grid side (n = side^2)"),
            ParamSpec("b", required=False, default=1, doc="masking parameter"),
        ),
        summary="M-Grid (Section 5.1): sqrt(b+1) rows + columns; optimal load",
        masking=True,
        extract=lambda system: {"side": system.side, "b": system.b},
        shape=_square_shape,
        instance_of=MGrid,
    )
)

register(
    ConstructionEntry(
        name="mpath",
        factory=MPath,
        params=(
            ParamSpec("side", doc="triangular-lattice side (n = side^2)"),
            ParamSpec("b", required=False, default=1, doc="masking parameter"),
        ),
        summary="M-Path (Section 7): disjoint lattice crossings; optimal load and Fp",
        masking=True,
        extract=lambda system: {"side": system.side, "b": system.b},
        shape=_square_shape,
        instance_of=MPath,
    )
)

register(
    ConstructionEntry(
        name="rt",
        factory=RecursiveThreshold,
        params=(
            ParamSpec("k", required=False, default=4, doc="branching factor"),
            ParamSpec("l", required=False, default=3, doc="inner threshold"),
            ParamSpec("depth", doc="recursion depth (n = k^depth)"),
        ),
        summary="RT(k,l) recursive threshold (Section 5.2): near-optimal availability",
        masking=True,
        extract=lambda system: {"k": system.k, "l": system.l, "depth": system.depth},
        shape=_rt_shape,
        instance_of=RecursiveThreshold,
    )
)

register(
    ConstructionEntry(
        name="boostfpp",
        factory=BoostedFPP,
        params=(
            ParamSpec("q", doc="projective-plane order (prime power)"),
            ParamSpec("b", required=False, default=1, doc="masking parameter"),
        ),
        summary="boostFPP (Section 6): FPP(q) boosted by (3b+1)-of-(4b+1) blocks",
        masking=True,
        extract=lambda system: {"q": system.q, "b": system.b},
        shape=_boost_shape,
        instance_of=BoostedFPP,
    )
)

register(
    ConstructionEntry(
        name="fpp",
        factory=FiniteProjectivePlane,
        params=(ParamSpec("q", doc="plane order (prime power)"),),
        summary="finite projective plane PG(2,q): optimal-load regular system; b = 0",
        masking=False,
        extract=lambda system: {"q": system.q},
        shape=_plane_shape,
        instance_of=FiniteProjectivePlane,
    )
)

register(
    ConstructionEntry(
        name="crumbling-wall",
        factory=lambda rows: CrumblingWall(list(rows)),
        params=(
            ParamSpec("rows", type=tuple, doc="row widths, e.g. [3, 4, 5]"),
        ),
        summary="crumbling wall: one full row + one element of each lower row; b = 0",
        masking=False,
        extract=lambda system: {"rows": tuple(system.row_widths)},
        shape=_wall_shape,
        instance_of=CrumblingWall,
    )
)

register(
    ConstructionEntry(
        name="tree",
        factory=TreeQuorumSystem,
        params=(ParamSpec("depth", doc="binary-tree depth (n = 2^(depth+1) - 1)"),),
        summary="[AE91] tree quorums: root-path to half-the-leaves; regular, b = 0",
        masking=False,
        extract=lambda system: {"depth": system.depth},
        shape=_tree_shape,
        instance_of=TreeQuorumSystem,
    )
)

register(
    ConstructionEntry(
        name="wheel",
        factory=WheelQuorumSystem,
        params=(ParamSpec("n", doc="number of servers (1 hub + n-1 rim)"),),
        summary="wheel: hub+spoke pairs plus the full rim; regular, b = 0",
        masking=False,
        extract=lambda system: {"n": system.n},
        shape=_universe_shape,
        instance_of=WheelQuorumSystem,
    )
)
