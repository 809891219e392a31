"""Model persistence — the ``.mdl`` file of this environment.

Paper section 2: after each validation phase "the results of each
experiment are used to continuous improvement of the Simulink model that
remains still the actual documentation."  For the model to *be* the
documentation it must be storable and re-loadable; this module provides a
JSON document format for diagrams, and it alone decides what a diagram's
content is.

Blocks serialise through one codec table: one entry per block class,
holding how to extract its parameters and how to load it back.  Most
classes round-trip automatically from their constructor signature
(parameters are stored as same-named attributes); awkward ones register
an explicit ``extract`` and/or ``load``; blocks holding Python callables
(charts, custom S-functions) are rejected with a clear message — like any
tool file format, only declarative content persists.

:func:`model_to_dict` writes the *canonical* document: blocks sorted by
name and data connections sorted element-wise — neither order can
influence execution (the compiler re-sorts blocks deterministically by
data dependency + name, and input maps are keyed by port).
Event-connection order is **kept**: multiple function-call targets on one
port dispatch in wiring order, so reordering would change ISR execution
order.  Subsystem interiors are written by the same function, so they
are canonical too.  Saved files are therefore diff-stable, and the
document is the diagram's content address (:func:`model_content_hash`).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from typing import Any, Callable, NamedTuple, Optional, Type

import numpy as np

from .block import Block
from .diagnostics import ModelError
from .graph import Model

FORMAT_VERSION = 1


class _Codec(NamedTuple):
    cls: Type[Block]
    #: block -> parameter dict
    extract: Callable[[Block], dict]
    #: (name, **params) -> block
    load: Callable[..., Block]


#: document node "type" -> codec
_CODECS: dict[str, _Codec] = {}


def register_block_class(
    cls: Type[Block],
    extract: Optional[Callable[[Block], dict]] = None,
    load: Optional[Callable[..., Block]] = None,
) -> None:
    """Make a block class (de)serialisable.

    ``extract(block)`` returns the node's parameters (default: the
    constructor keywords, read back off same-named attributes);
    ``load(name, **params)`` rebuilds the block (default: ``cls``).
    """
    _CODECS[cls.__name__] = _Codec(cls, extract or _default_extract, load or cls)


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


def _codec(type_name: str) -> Optional[_Codec]:
    _register_domain()
    return _CODECS.get(type_name)


def block_to_dict(block: Block) -> dict:
    """One block -> document node."""
    cls = type(block)
    codec = _codec(cls.__name__)
    if codec is None or codec.cls is not cls:
        raise ModelError(
            f"block type {cls.__name__} is not registered for serialisation"
        )
    return {
        "type": cls.__name__,
        "name": block.name,
        "params": _jsonify(codec.extract(block)),
    }


def block_from_dict(node: dict) -> Block:
    """One document node -> block."""
    codec = _codec(node["type"])
    if codec is None:
        raise ModelError(f"unknown block type '{node['type']}' in model file")
    try:
        return codec.load(node["name"], **node["params"])
    except (KeyError, TypeError, ValueError) as e:
        raise ModelError(
            f"malformed {node['type']} node '{node.get('name')}' in model file: {e}"
        ) from e


def model_to_dict(model: Model) -> dict:
    """Whole diagram -> its canonical document (see the module docstring)."""
    return {
        "format": FORMAT_VERSION,
        "name": model.name,
        "blocks": [block_to_dict(model.blocks[name]) for name in sorted(model.blocks)],
        "connections": sorted(
            [c.src, c.src_port, c.dst, c.dst_port] for c in model.connections
        ),
        "events": [[e.src, e.event_port, e.dst] for e in model.event_connections],
    }


def model_from_dict(doc: dict) -> Model:
    """Document -> diagram; blocks and data connections may come in any order."""
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
def doc_content_hash(
    doc: dict,
    dt: Optional[float] = None,
    solver: Optional[str] = None,
) -> str:
    """SHA-256 hex digest of a document written by :func:`model_to_dict`
    (plus dt/solver if given).

    Deterministic across processes and interpreter runs: the payload is
    the canonical document as sorted-key JSON, which contains only
    declarative parameter values — no object ids, no ``repr`` of live
    instances, no dict iteration order.
    """
    payload = {"doc": doc, "dt": dt, "solver": solver}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def model_content_hash(
    model: Model,
    dt: Optional[float] = None,
    solver: Optional[str] = None,
) -> str:
    """The diagram's content address: :func:`doc_content_hash` of its
    document.  Raises :class:`~repro.model.diagnostics.ModelError` for
    diagrams that hold Python callables (those cannot be
    content-addressed)."""
    return doc_content_hash(model_to_dict(model), dt, solver)


# ---------------------------------------------------------------------------
# registrations: standard library
# ---------------------------------------------------------------------------
def _dtype_to_dict(dtype) -> dict:
    """A :class:`~repro.model.types.DataType` as a document value: its
    name, plus its fixed-point format (enums by name) when it has one."""
    f = dtype.fixpt
    return {"name": dtype.name, "fixpt": None if f is None else {
        "word_length": f.word_length, "fraction_length": f.fraction_length,
        "signed": f.signed, "overflow": f.overflow.name,
        "rounding": f.rounding.name,
    }}


def _dtype_from_dict(doc: dict):
    """The inverse of :func:`_dtype_to_dict`; a malformed value raises
    ``KeyError``/``TypeError``/``ValueError`` (a malformed node)."""
    from repro.fixpt import FixedPointType, Overflow, Rounding

    from .types import DataType

    name, f = doc["name"], doc["fixpt"]
    if not isinstance(name, str):
        raise TypeError(f"data type name must be a string, not {name!r}")
    if f is None:
        return DataType(name)
    return DataType(name, FixedPointType(
        f["word_length"], f["fraction_length"], f["signed"],
        Overflow[f["overflow"]], Rounding[f["rounding"]],
    ))


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
        lib.TransportDelay, lib.Backlash, lib.EdgeDetector, lib.TransferFunction,
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
        lib.DataTypeConversion,
        lambda b: {"target": _dtype_to_dict(b.target)},
        lambda name, target: lib.DataTypeConversion(name, _dtype_from_dict(target)),
    )

    def subsystem(cls) -> None:
        register_block_class(
            cls,
            lambda b: {"inner": model_to_dict(b.inner)},
            lambda name, inner: cls(name, inner=model_from_dict(inner)),
        )

    subsystem(lib.Subsystem)
    subsystem(lib.FunctionCallSubsystem)


_register_standard()


# ---------------------------------------------------------------------------
# registrations: PE block set, control and plant blocks
# ---------------------------------------------------------------------------
@functools.cache
def _register_domain() -> None:
    """Register the PE/control/plant block classes on first use.

    Deferred (not at import time) because the domain packages themselves
    import :mod:`repro.model` — eager registration would make the import
    graph order-dependent.
    """
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

    # gains dicts <-> PIDGains
    def pid(cls, extra: Callable[[Block], dict] = lambda b: {}) -> None:
        def extract(b) -> dict:
            g = b.gains
            return {
                "gains": {"kp": g.kp, "ki": g.ki, "kd": g.kd,
                          "u_min": g.u_min, "u_max": g.u_max},
                "sample_time": b.sample_time,
                **extra(b),
            }

        register_block_class(
            cls,
            extract,
            lambda name, gains, **params: cls(name, PIDGains(**gains), **params),
        )

    pid(PIDController)
    pid(FixedPointPID, lambda b: {"e_scale": b.e_scale})
    register_block_class(LowPassFilter, lambda b: {
        "cutoff_hz": b.cutoff_hz, "sample_time": b.sample_time,
    })
    register_block_class(Staircase, lambda b: {"times": b.times, "levels": b.levels})
    register_block_class(QuadratureSpeed, lambda b: {
        "counts_per_rev": b.counts_per_rev, "sample_time": b.sample_time,
    })

    # plant blocks: params dicts <-> MotorParams
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

    register_block_class(
        DCMotor,
        _motor_extract,
        lambda name, params, **rest: DCMotor(name, MotorParams(**params), **rest),
    )
