"""Model persistence — the ``.mdl`` file of this environment.

Paper section 2: after each validation phase "the results of each
experiment are used to continuous improvement of the Simulink model that
remains still the actual documentation."  For the model to *be* the
documentation it must be storable and re-loadable; this module provides a
JSON document format for diagrams.

Blocks serialise through a parameter-extraction registry: most classes
round-trip automatically from their constructor signature (parameters are
stored as same-named attributes), awkward ones register an explicit
extractor, and blocks holding Python callables (charts, custom
S-functions) are rejected with a clear message — like any tool file
format, only declarative content persists.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from typing import Any, Callable, Optional, Type

import numpy as np

from .block import Block
from .diagnostics import ModelError
from .graph import Model

FORMAT_VERSION = 1

#: class -> explicit parameter extractor (block -> kwargs dict)
_EXTRACTORS: dict[Type[Block], Callable[[Block], dict]] = {}
#: class-name -> class, for loading
_CLASSES: dict[str, Type[Block]] = {}


def register_block_class(
    cls: Type[Block],
    extractor: Optional[Callable[[Block], dict]] = None,
) -> None:
    """Make a block class (de)serialisable."""
    _CLASSES[cls.__name__] = cls
    if extractor is not None:
        _EXTRACTORS[cls] = extractor


@functools.cache
def _ctor_params(cls: Type[Block]) -> tuple[str, ...]:
    """The constructor keyword names of ``cls`` (memoized per class)."""
    return tuple(
        pname for pname, p in inspect.signature(cls.__init__).parameters.items()
        if pname not in ("self", "name")
        and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    )


def _default_extract(block: Block) -> dict:
    """Pull constructor kwargs back off same-named attributes."""
    params: dict[str, Any] = {}
    for pname in _ctor_params(type(block)):
        if not hasattr(block, pname):
            raise ModelError(
                f"cannot serialise block type {type(block).__name__}: "
                f"constructor parameter '{pname}' is not a stored attribute "
                "(register an explicit extractor)"
            )
        params[pname] = getattr(block, pname)
    return params


def _jsonify(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if callable(value):
        raise ModelError(
            "cannot serialise a Python callable parameter; only declarative "
            "content persists in a model file"
        )
    raise ModelError(f"cannot serialise parameter value of type {type(value).__name__}")


def block_to_dict(block: Block) -> dict:
    """One block -> document node."""
    _ensure_domain_registered()
    cls = type(block)
    if cls.__name__ not in _CLASSES:
        raise ModelError(
            f"block type {cls.__name__} is not registered for serialisation"
        )
    extract = _EXTRACTORS.get(cls, _default_extract)
    return {
        "type": cls.__name__,
        "name": block.name,
        "params": _jsonify(extract(block)),
    }


def block_from_dict(node: dict) -> Block:
    cls = _CLASSES.get(node["type"])
    if cls is None:
        raise ModelError(f"unknown block type '{node['type']}' in model file")
    return cls(node["name"], **node["params"])


def model_to_dict(model: Model) -> dict:
    """Whole diagram -> document."""
    return {
        "format": FORMAT_VERSION,
        "name": model.name,
        "blocks": [block_to_dict(b) for b in model.blocks.values()],
        "connections": [
            [c.src, c.src_port, c.dst, c.dst_port] for c in model.connections
        ],
        "events": [[e.src, e.event_port, e.dst] for e in model.event_connections],
    }


def model_from_dict(doc: dict) -> Model:
    _ensure_domain_registered()
    if doc.get("format") != FORMAT_VERSION:
        raise ModelError(
            f"unsupported model file format {doc.get('format')!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    m = Model(doc["name"])
    for node in doc["blocks"]:
        m.add(block_from_dict(node))
    for src, sp, dst, dp in doc["connections"]:
        m.connect(src, dst, sp, dp)
    for src, ep, dst in doc["events"]:
        m.connect_event(src, dst, ep)
    return m


def save_model(model: Model, path: str) -> None:
    """Write the diagram as a JSON model file."""
    with open(path, "w") as f:
        json.dump(model_to_dict(model), f, indent=2)


def load_model(path: str) -> Model:
    """Read a diagram back from a JSON model file."""
    with open(path) as f:
        return model_from_dict(json.load(f))


# ---------------------------------------------------------------------------
# content hashing
# ---------------------------------------------------------------------------
def canonical_model_doc(model_or_doc) -> dict:
    """The model document in canonical form for hashing and rebuilding.

    Blocks are sorted by name and data connections sorted element-wise —
    neither order can influence execution (the compiler re-sorts blocks
    deterministically by data dependency + name, and input maps are keyed
    by port).  Event-connection order is **kept**: multiple function-call
    targets on one port dispatch in wiring order, so reordering would
    change ISR execution order and the hash must distinguish it.
    Subsystem interiors are canonicalised recursively.
    """
    doc = model_or_doc if isinstance(model_or_doc, dict) else model_to_dict(model_or_doc)
    blocks = []
    for node in sorted(doc["blocks"], key=lambda n: n["name"]):
        params = node["params"]
        if "inner" in params and isinstance(params["inner"], dict):
            params = dict(params)
            params["inner"] = canonical_model_doc(params["inner"])
        blocks.append({"type": node["type"], "name": node["name"], "params": params})
    return {
        "format": doc["format"],
        "name": doc["name"],
        "blocks": blocks,
        "connections": sorted(doc["connections"]),
        "events": list(doc["events"]),
    }


def model_content_hash(
    model: Model,
    dt: Optional[float] = None,
    solver: Optional[str] = None,
) -> str:
    """SHA-256 hex digest of the diagram content (plus dt/solver if given).

    Deterministic across processes and interpreter runs: the payload is
    the canonical JSON document (sorted keys, sorted blocks/connections),
    which contains only declarative parameter values — no object ids, no
    ``repr`` of live instances, no dict iteration order.  Raises
    :class:`~repro.model.diagnostics.ModelError` for diagrams that hold
    Python callables (those cannot be content-addressed).
    """
    payload = {
        "doc": canonical_model_doc(model),
        "dt": dt,
        "solver": solver,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# registrations: standard library
# ---------------------------------------------------------------------------
def _register_standard() -> None:
    from . import library as lib

    auto = [
        lib.Constant, lib.Step, lib.Ramp, lib.SineWave, lib.PulseGenerator,
        lib.Clock, lib.WhiteNoise, lib.Scope, lib.Terminator, lib.Assertion,
        lib.Gain, lib.Bias, lib.Abs, lib.Sign, lib.MathFunction,
        lib.RelationalOperator, lib.UnitDelay, lib.Memory, lib.ZeroOrderHold,
        lib.DiscreteIntegrator, lib.DiscreteDerivative, lib.Integrator,
        lib.Saturation, lib.Relay, lib.RateLimiter, lib.Quantizer,
        lib.Coulomb, lib.Switch, lib.ManualSwitch, lib.Inport, lib.Outport,
        lib.TransportDelay, lib.Backlash, lib.EdgeDetector,
    ]
    for cls in auto:
        register_block_class(cls)

    register_block_class(lib.Sum, lambda b: {"signs": b.signs})
    register_block_class(lib.Product, lambda b: {"ops": b.ops})
    register_block_class(lib.MinMax, lambda b: {"mode": b.mode, "n_in": b.n_in})
    register_block_class(
        lib.LogicalOperator, lambda b: {"op": b.op, "n_in": b.n_in}
    )
    register_block_class(
        lib.DeadZone, lambda b: {"start": b.zone_start, "end": b.zone_end}
    )
    register_block_class(
        lib.Lookup1D,
        lambda b: {"breakpoints": b.breakpoints, "values": b.values, "mode": b.mode},
    )
    # normalised coefficients round-trip exactly (a0 = 1 after __init__)
    register_block_class(
        lib.DiscreteTransferFunction,
        lambda b: {"num": list(b.b), "den": list(b.a), "sample_time": b.sample_time},
    )
    register_block_class(
        lib.StateSpace,
        lambda b: {"A": b.A, "B": b.B, "C": b.C, "D": b.D, "x0": b.x0},
    )
    register_block_class(
        lib.TransferFunction,
        lambda b: {"A": b.A, "B": b.B, "C": b.C, "D": b.D, "x0": b.x0},
    )
    # TransferFunction(name, num, den) signature differs from StateSpace
    # payload, so it loads as a StateSpace-compatible node:
    _CLASSES["TransferFunction"] = lib.StateSpace

    def _sub_extract(b: lib.Subsystem) -> dict:
        return {"inner": model_to_dict(b.inner)}

    def _register_subsystem(cls) -> None:
        _CLASSES[cls.__name__] = cls
        _EXTRACTORS[cls] = _sub_extract

    _register_subsystem(lib.Subsystem)
    _register_subsystem(lib.FunctionCallSubsystem)


_register_standard()


# subsystem nodes need recursive handling in block_from_dict: shadow it
def block_from_dict(node: dict) -> Block:  # type: ignore[no-redef]
    from .library.subsystems import FunctionCallSubsystem, Subsystem

    cls = _CLASSES.get(node["type"])
    if cls is None:
        raise ModelError(f"unknown block type '{node['type']}' in model file")
    if issubclass(cls, (Subsystem, FunctionCallSubsystem)):
        inner = model_from_dict(node["params"]["inner"])
        return cls(node["name"], inner=inner)
    return cls(node["name"], **node["params"])


# ---------------------------------------------------------------------------
# registrations: PE block set and control blocks
# ---------------------------------------------------------------------------
def _register_domain() -> None:
    from repro.core import blocks as cb
    from repro.control import (
        FixedPointPID,
        LowPassFilter,
        PIDController,
        QuadratureSpeed,
        Staircase,
    )
    from repro.control.pid import PIDGains

    from repro.pe.properties import DerivedProperty

    def _bean_extract(extra: Callable[[Block], dict] = lambda b: {}):
        def extract(b) -> dict:
            params = {
                name: value
                for name, value in b.bean._values.items()
                if not isinstance(b.bean._props[name], DerivedProperty)
            }
            params.update(extra(b))
            return params

        return extract

    register_block_class(cb.ProcessorExpertConfig, _bean_extract())
    register_block_class(
        cb.ADCBlock,
        _bean_extract(lambda b: {"sample_time": b.sample_time,
                                 "vref_low": b.vref_low, "vref_high": b.vref_high}),
    )
    register_block_class(cb.PWMBlock, _bean_extract())
    register_block_class(cb.QuadDecBlock, _bean_extract())
    register_block_class(cb.BitIOBlock, _bean_extract())

    register_block_class(cb.TimerIntBlock, _bean_extract())

    def _pid_extract(b) -> dict:
        g = b.gains
        return {
            "gains": {"kp": g.kp, "ki": g.ki, "kd": g.kd,
                      "u_min": g.u_min, "u_max": g.u_max},
            "sample_time": b.sample_time,
        }

    _CLASSES["PIDController"] = PIDController
    _EXTRACTORS[PIDController] = _pid_extract
    register_block_class(LowPassFilter, lambda b: {
        "cutoff_hz": b.cutoff_hz, "sample_time": b.sample_time,
    })
    register_block_class(Staircase, lambda b: {"times": b.times, "levels": b.levels})
    register_block_class(QuadratureSpeed, lambda b: {
        "counts_per_rev": b.counts_per_rev, "sample_time": b.sample_time,
    })

    def _fx_pid_extract(b: FixedPointPID) -> dict:
        g = b.gains
        return {
            "gains": {"kp": g.kp, "ki": g.ki, "kd": g.kd,
                      "u_min": g.u_min, "u_max": g.u_max},
            "sample_time": b.sample_time,
            "e_scale": b.e_scale,
        }

    _CLASSES["FixedPointPID"] = FixedPointPID
    _EXTRACTORS[FixedPointPID] = _fx_pid_extract

    # plant blocks -------------------------------------------------------
    from repro.plants import DCMotor, IRCEncoder, PowerStage
    from repro.plants.dc_motor import MotorParams

    register_block_class(PowerStage)
    register_block_class(IRCEncoder)

    def _motor_extract(b: DCMotor) -> dict:
        p = b.params
        return {
            "params": {
                "R": p.R, "L": p.L, "Kt": p.Kt, "Ke": p.Ke, "J": p.J,
                "b": p.b, "tau_coulomb": p.tau_coulomb, "v_nominal": p.v_nominal,
            },
            "initial_speed": b.initial_speed,
        }

    _CLASSES["DCMotor"] = DCMotor
    _EXTRACTORS[DCMotor] = _motor_extract

    # loader shims: gains dicts -> PIDGains, params dicts -> MotorParams
    _gains_classes = (PIDController, FixedPointPID)

    global block_from_dict
    prev_loader = block_from_dict

    def loader(node: dict) -> Block:  # type: ignore[no-redef]
        cls = _CLASSES.get(node["type"])
        if cls in _gains_classes:
            params = dict(node["params"])
            params["gains"] = PIDGains(**params["gains"])
            return cls(node["name"], **params)
        if cls is DCMotor:
            params = dict(node["params"])
            params["params"] = MotorParams(**params["params"])
            return cls(node["name"], **params)
        return prev_loader(node)

    block_from_dict = loader


_domain_registered = False


def _ensure_domain_registered() -> None:
    """Register the PE/control/plant block classes on first use.

    Deferred (not at import time) because the domain packages themselves
    import :mod:`repro.model` — eager registration would make the import
    graph order-dependent.
    """
    global _domain_registered
    if not _domain_registered:
        _domain_registered = True
        _register_domain()
