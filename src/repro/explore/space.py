"""Declarative parameter spaces: what a sweep job sweeps.

A :class:`ParameterSpace` is a list of :class:`Axis` objects (grid of
explicit values, linear range, or logarithmic range), optional
**coupled parameters** (targets driven by an expression over the axis
values — e.g. one ``bw`` axis feeding the read *and* write bank bit
widths), and optional **derived objectives** (expressions over axis
values and built-in objectives, e.g. an alpha-power-law access-time for
the power/speed Pareto trade-off).

Enumeration is deterministic: axes vary row-major in declaration order
(last axis fastest), ``point(i)`` is pure, ``columns(indices)`` gives
the same values for a whole chunk as float64 columns, and the whole
space serializes to a JSON payload so a checkpointed job can be
resumed by a process that never saw the original request.

An axis ``target`` may be a dotted path into the design hierarchy
(``custom_hardware.luminance_chip.read_bank.bits``) so sweeps reach
row-local parameters, not just top-page globals; resolution happens in
:func:`repro.explore.batcheval.resolve_target`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.expressions import COLUMN, Expression, compile_expression
from ..errors import ExploreError

#: hard ceiling a caller-supplied cap cannot exceed — a sweep bigger
#: than this belongs on more than one job
ABSOLUTE_POINT_CAP = 1_000_000

#: the ceiling for **lazy** spaces (``lazy=True``): enumeration that is
#: never materialized row-by-row — the surrogate engine predicts most
#: points from a fitted model and only ever exact-evaluates a sampled
#: subset, so it may enumerate far past the exact-sweep cap
LAZY_POINT_CAP = 16_777_216

DEFAULT_POINT_CAP = 100_000


def _column(expression: Expression, env: Mapping[str, np.ndarray],
            count: int) -> np.ndarray:
    """``expression`` at every point of a chunk of ``count`` points."""
    value = expression.evaluate(env)
    return value if type(value) is COLUMN else np.full(count, float(value))


def _finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ExploreError(f"{what} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Axis:
    """One swept dimension: a name and its ordered value list.

    ``target`` is the design parameter the values are written to; it
    defaults to the axis name.  Values are stored explicitly (ranges
    are expanded at construction) so enumeration is trivially
    deterministic and the payload round-trips exactly.
    """

    name: str
    values: Tuple[float, ...]
    target: str = ""

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "a").replace(
            ".", "a"
        ).isalnum():
            raise ExploreError(f"bad axis name {self.name!r}")
        if not self.values:
            raise ExploreError(f"axis {self.name!r} has no values")
        object.__setattr__(
            self, "values", tuple(_finite(v, f"axis {self.name!r} value")
                                  for v in self.values)
        )
        if not self.target:
            object.__setattr__(self, "target", self.name)

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def linear(cls, name: str, start: float, stop: float, step: float,
               target: str = "") -> "Axis":
        """``start:stop:step`` inclusive of ``stop`` (within tolerance)."""
        start = _finite(start, f"axis {name!r} start")
        stop = _finite(stop, f"axis {name!r} stop")
        step = _finite(step, f"axis {name!r} step")
        if step == 0:
            raise ExploreError(f"axis {name!r}: step must be non-zero")
        if (stop - start) * step < 0:
            raise ExploreError(
                f"axis {name!r}: step {step:g} walks away from "
                f"stop {stop:g}"
            )
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count > ABSOLUTE_POINT_CAP:
            raise ExploreError(
                f"axis {name!r}: {count} values from {start:g}:{stop:g}:"
                f"{step:g} is over the absolute cap {ABSOLUTE_POINT_CAP}"
            )
        return cls(name, tuple(start + i * step for i in range(count)),
                   target=target)

    @classmethod
    def logarithmic(cls, name: str, start: float, stop: float, count: int,
                    target: str = "") -> "Axis":
        """``count`` log-spaced values from ``start`` to ``stop``."""
        start = _finite(start, f"axis {name!r} start")
        stop = _finite(stop, f"axis {name!r} stop")
        if start <= 0 or stop <= 0:
            raise ExploreError(
                f"axis {name!r}: log range needs positive endpoints"
            )
        count = int(count)
        if count < 2:
            raise ExploreError(f"axis {name!r}: log range needs count >= 2")
        ratio = math.log(stop / start) / (count - 1)
        return cls(
            name,
            tuple(start * math.exp(i * ratio) for i in range(count)),
            target=target,
        )

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "values": list(self.values),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "Axis":
        try:
            return cls(
                str(payload["name"]),
                tuple(float(v) for v in payload["values"]),
                target=str(payload.get("target", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ExploreError(f"corrupt axis payload: {exc}") from exc


def parse_axis_spec(spec: str) -> Axis:
    """Parse the CLI/web axis syntax into an :class:`Axis`.

    Accepted forms (``target=`` is optional everywhere; it defaults to
    the axis name)::

        VDD2=1.1:3.3:0.1            linear range, inclusive stop
        bw=8,12,16                  explicit values
        f=log:1e6:1e9:7             7 log-spaced points
        bw@a.b.bits=8,12,16         axis 'bw' writing target 'a.b.bits'
    """
    if "=" not in spec:
        raise ExploreError(
            f"axis spec {spec!r} must look like name=start:stop:step, "
            "name=v1,v2,... or name=log:start:stop:count"
        )
    head, _, body = spec.partition("=")
    head = head.strip()
    body = body.strip()
    name, _, target = head.partition("@")
    name = name.strip()
    target = target.strip()
    if not body:
        raise ExploreError(f"axis {name!r}: empty value spec")

    def _num(text: str, what: str) -> float:
        try:
            return float(text)
        except ValueError:
            raise ExploreError(
                f"axis {name!r}: {what} {text!r} is not a number"
            ) from None

    if body.startswith("log:"):
        parts = body.split(":")
        if len(parts) != 4:
            raise ExploreError(
                f"axis {name!r}: log spec needs log:start:stop:count"
            )
        count_text = parts[3]
        try:
            count = int(count_text)
        except ValueError:
            raise ExploreError(
                f"axis {name!r}: log count {count_text!r} is not an integer"
            ) from None
        return Axis.logarithmic(
            name, _num(parts[1], "start"), _num(parts[2], "stop"),
            count, target=target,
        )
    if "," in body:
        values = tuple(
            _num(part.strip(), "value")
            for part in body.split(",")
            if part.strip()
        )
        return Axis(name, values, target=target)
    if ":" in body:
        parts = body.split(":")
        if len(parts) != 3:
            raise ExploreError(
                f"axis {name!r}: range spec needs start:stop:step"
            )
        return Axis.linear(
            name, _num(parts[0], "start"), _num(parts[1], "stop"),
            _num(parts[2], "step"), target=target,
        )
    return Axis(name, (_num(body, "value"),), target=target)


@dataclass(frozen=True)
class CoupledParam:
    """A design parameter driven by an expression over the axis values.

    ``write_bits = "bw"`` makes one declared ``bw`` axis feed several
    physical parameters; any expression over axis names and constants
    is allowed (``"bw / 2"``, ``"if(bw > 12, 2, 1)"``) —
    :class:`ParameterSpace` rejects any other name.
    """

    target: str
    source: str
    expression: Expression = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        if not self.target:
            raise ExploreError("coupled parameter needs a target")
        try:
            object.__setattr__(
                self, "expression", compile_expression(self.source)
            )
        except Exception as exc:
            raise ExploreError(
                f"coupled parameter {self.target!r}: bad expression "
                f"{self.source!r}: {exc}"
            ) from exc

    def value(self, axis_values: Mapping[str, float]) -> float:
        try:
            return float(self.expression.evaluate(dict(axis_values)))
        except Exception as exc:
            raise ExploreError(
                f"coupled parameter {self.target!r} = {self.source!r} "
                f"failed: {exc}"
            ) from exc

    def to_payload(self) -> dict:
        return {"target": self.target, "source": self.source}

    @classmethod
    def from_payload(cls, payload: Mapping) -> "CoupledParam":
        try:
            return cls(str(payload["target"]), str(payload["source"]))
        except (KeyError, TypeError) as exc:
            raise ExploreError(f"corrupt coupled payload: {exc}") from exc


def coupled_from_spec(spec: str) -> CoupledParam:
    """Parse ``target=expression`` into a :class:`CoupledParam`."""
    if "=" not in spec:
        raise ExploreError(
            f"coupled spec {spec!r} must look like target=expression"
        )
    target, _, source = spec.partition("=")
    return CoupledParam(target.strip(), source.strip())


@dataclass(frozen=True)
class DerivedObjective:
    """An objective computed from axis values and built-in objectives.

    The expression sees every axis (by name), every coupled value (by
    target), and the built-in objectives already computed for the point
    (``power``, and ``area`` / ``delay`` when requested) — e.g.
    ``access_time = "t0 * (VDD2 / 1.5) / ((VDD2 - 0.7) ^ 1.3)"``.
    """

    name: str
    source: str
    expression: Expression = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise ExploreError(f"bad objective name {self.name!r}")
        try:
            object.__setattr__(
                self, "expression", compile_expression(self.source)
            )
        except Exception as exc:
            raise ExploreError(
                f"objective {self.name!r}: bad expression "
                f"{self.source!r}: {exc}"
            ) from exc

    def value(self, env: Mapping[str, float]) -> float:
        try:
            return float(self.expression.evaluate(dict(env)))
        except Exception as exc:
            raise ExploreError(
                f"objective {self.name!r} = {self.source!r} failed: {exc}"
            ) from exc

    def column(self, env: Mapping[str, np.ndarray], count: int) -> np.ndarray:
        """The objective at every point of a chunk, from columns."""
        return _column(self.expression, env, count)

    def to_payload(self) -> dict:
        return {"name": self.name, "source": self.source}

    @classmethod
    def from_payload(cls, payload: Mapping) -> "DerivedObjective":
        try:
            return cls(str(payload["name"]), str(payload["source"]))
        except (KeyError, TypeError) as exc:
            raise ExploreError(f"corrupt objective payload: {exc}") from exc


class ParameterSpace:
    """The full sweep specification: axes x coupling, capped.

    >>> space = ParameterSpace([Axis("VDD", (1.1, 1.5)), Axis("bw", (8, 16))])
    >>> len(space)
    4
    >>> space.point(1)["values"]
    {'VDD': 1.1, 'bw': 16.0}
    """

    def __init__(
        self,
        axes: Sequence[Axis],
        coupled: Sequence[CoupledParam] = (),
        point_cap: int = DEFAULT_POINT_CAP,
        lazy: bool = False,
        *,
        check_names: bool = True,
    ):
        """``check_names`` refuses a coupled expression that reads
        anything but axis names and constants; :meth:`from_payload`
        turns it off, so a saved job whose expression reads another name
        only where it is never evaluated still loads as it ran."""
        if not axes:
            raise ExploreError("a parameter space needs at least one axis")
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise ExploreError(f"duplicate axis names in {names}")
        targets = [axis.target for axis in axes] + [
            c.target for c in coupled
        ]
        if len(set(targets)) != len(targets):
            raise ExploreError(f"duplicate sweep targets in {targets}")
        for couple in coupled if check_names else ():
            unknown = sorted(couple.expression.variables - set(names))
            if unknown:
                raise ExploreError(
                    f"coupled parameter {couple.target!r} = {couple.source!r}"
                    f" reads {', '.join(map(repr, unknown))}; it sees only "
                    f"the axis names {names} and constants"
                )
        if point_cap < 1:
            raise ExploreError(f"point cap must be >= 1, got {point_cap}")
        # surrogate runs enumerate lazily (predicted, never materialized
        # row-by-row), so they may raise the ceiling — exact sweeps stay
        # bounded by ABSOLUTE_POINT_CAP
        ceiling = LAZY_POINT_CAP if lazy else ABSOLUTE_POINT_CAP
        point_cap = min(int(point_cap), ceiling)
        self.axes: Tuple[Axis, ...] = tuple(axes)
        self.coupled: Tuple[CoupledParam, ...] = tuple(coupled)
        self.point_cap = point_cap
        self.lazy = bool(lazy)
        total = 1
        for axis in self.axes:
            total *= len(axis)
            if total > point_cap:
                raise ExploreError(
                    f"space has at least {total} points, over the cap of "
                    f"{point_cap}; shrink an axis or raise --max-points "
                    "(surrogate sweeps may enumerate lazily past the "
                    "exact-sweep ceiling)"
                )
        self._total = total
        self._arrays: Optional[List[np.ndarray]] = None  # axis values

    def __len__(self) -> int:
        return self._total

    @property
    def axis_names(self) -> List[str]:
        return [axis.name for axis in self.axes]

    def axis_values(self, index: int) -> Dict[str, float]:
        """Axis name -> value for point ``index`` (row-major order)."""
        if not 0 <= index < self._total:
            raise ExploreError(
                f"point index {index} out of range 0..{self._total - 1}"
            )
        values: Dict[str, float] = {}
        remainder = index
        for axis in reversed(self.axes):
            remainder, position = divmod(remainder, len(axis))
            values[axis.name] = axis.values[position]
        return {axis.name: values[axis.name] for axis in self.axes}

    def point(self, index: int) -> Dict[str, object]:
        """Everything about point ``index``: axis values and the full
        target -> value override map (coupling applied)."""
        values = self.axis_values(index)
        overrides: Dict[str, float] = {}
        for axis in self.axes:
            overrides[axis.target] = values[axis.name]
        for couple in self.coupled:
            overrides[couple.target] = couple.value(values)
        return {"index": index, "values": values, "overrides": overrides}

    def axis_columns(self, indices: Sequence[int]) -> Dict[str, np.ndarray]:
        """Axis name -> float64 column of the values at points
        ``indices``, one element a point: :meth:`axis_values` bit for
        bit, decoded row-major as it does."""
        if type(indices) is range:
            position = np.arange(indices.start, indices.stop, indices.step,
                                 dtype=np.int64)
        else:
            position = np.array(indices, dtype=np.int64)
        if position.size and not (
            0 <= position.min() and position.max() < self._total
        ):
            raise ExploreError(f"point indices out of range 0..{self._total - 1}")
        if self._arrays is None:
            self._arrays = [np.array(axis.values, dtype=np.float64)
                            for axis in self.axes]
        columns = []
        for axis, array in zip(reversed(self.axes), reversed(self._arrays)):
            position, offset = np.divmod(position, len(axis))
            columns.append((axis.name, array[offset]))
        return dict(reversed(columns))

    def columns(
        self, indices: Sequence[int]
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Points ``indices`` as float64 columns, one element a point:
        axis name -> value and target -> override (coupling applied),
        the values :meth:`point` gives point by point.  Raises where any
        point's coupling fails."""
        values = self.axis_columns(indices)
        overrides = {axis.target: values[axis.name] for axis in self.axes}
        for couple in self.coupled:
            overrides[couple.target] = _column(couple.expression, values,
                                               len(indices))
        return values, overrides

    def iter_points(self) -> Iterator[Dict[str, object]]:
        for index in range(self._total):
            yield self.point(index)

    def chunks(self, chunk_size: int) -> List[Tuple[int, int]]:
        """Shard the space into ``[start, stop)`` index ranges."""
        if chunk_size < 1:
            raise ExploreError(f"chunk size must be >= 1, got {chunk_size}")
        return [
            (start, min(start + chunk_size, self._total))
            for start in range(0, self._total, chunk_size)
        ]

    # -- persistence -------------------------------------------------------

    def to_payload(self) -> dict:
        payload = {
            "format": "powerplay-space/1",
            "axes": [axis.to_payload() for axis in self.axes],
            "coupled": [couple.to_payload() for couple in self.coupled],
            "point_cap": self.point_cap,
        }
        if self.lazy:
            payload["lazy"] = True
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "ParameterSpace":
        if payload.get("format") != "powerplay-space/1":
            raise ExploreError(
                f"corrupt space payload: format {payload.get('format')!r}"
            )
        return cls(
            [Axis.from_payload(a) for a in payload.get("axes", [])],
            [CoupledParam.from_payload(c) for c in payload.get("coupled", [])],
            point_cap=int(payload.get("point_cap", DEFAULT_POINT_CAP)),
            lazy=bool(payload.get("lazy", False)),
            check_names=False,
        )

    def __repr__(self) -> str:
        shape = "x".join(str(len(axis)) for axis in self.axes)
        return (
            f"ParameterSpace({', '.join(self.axis_names)}: {shape} = "
            f"{self._total} points)"
        )
