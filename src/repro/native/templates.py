"""Native (simulation-exact) C templates for the block library.

These are the second template set carried by the shared
:class:`repro.codegen.templates.TemplateRegistry` (the first set is the
MCU/TLC templates that generate readable target code).  A native
template emits C whose IEEE-754 operation sequence mirrors the block's
Python ``outputs``/``update``/``derivatives`` callbacks *exactly* — same
association order, same comparison polarity (so NaN propagation
matches), libm calls for the ``math`` functions CPython itself defers to
libm.  The equivalence suite in ``tests/native`` pins the compiled
translation unit bit-identical (atol=0) to the reference interpreter.

A template may *refuse* a block instance (``refuse`` returns a reason
string): blocks with unreproducible semantics (RNG draws, Python-object
state, raising error paths that double as control flow) fall back to the
Python paths instead of risking divergence.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.model.block import Block


class NativeTemplate:
    """Base native template: override the hooks a block needs.

    ``em`` is the per-block emitter (see ``repro.native.emit``): ``em.u(i)``
    / ``em.y(p)`` are C expressions/lvalues for ports, ``em.dw(field)``
    addresses dwork slots, ``em.x(i)``/``em.xd(i)`` address continuous
    state and its derivative, ``em.held(i)`` addresses the block's held
    slots (see :meth:`held`), ``em.lit(v)`` renders an exact C99 hex
    float literal, and ``em.line(...)`` appends a statement.
    """

    #: whether the C that :meth:`outputs` emits reads any input
    #: (``em.u``); ``False`` lets an RK4 stage evaluate the block without
    #: evaluating its inputs' producers first (the derivative closure
    #: stops there)
    outputs_read_inputs = True

    def refuse(self, block: Block) -> Optional[str]:
        return None

    def held(self, block: Block):
        """A contiguous float64 ndarray the *block* owns and writers
        outside the diagram update between steps, or ``None``.  The
        native context borrows it (never copies), so one write reaches
        every substrate."""
        return None

    def dwork(self, block: Block) -> list:
        """``[(field, n_slots), ...]`` — discrete-state layout."""
        return []

    def dwork_init(self, block: Block, ctx) -> list:
        """Initial slot values, flattened in :meth:`dwork` order (reads
        the started context, so ``block.start`` side effects carry
        over)."""
        out: list[float] = []
        for field, n in self.dwork(block):
            v = ctx.dwork[field]
            try:
                vals = [float(x) for x in v]
            except TypeError:  # a plain scalar slot
                vals = [float(v)]
            if len(vals) != n:
                raise ValueError(
                    f"dwork field '{field}' of {block.name}: "
                    f"expected {n} slots, got {len(vals)}"
                )
            out.extend(vals)
        return out

    def outputs(self, block: Block, em) -> None:
        pass

    def update(self, block: Block, em) -> None:
        pass

    def deriv(self, block: Block, em) -> None:
        pass


class HeldOutputs(NativeTemplate):
    """Outputs that hold what a co-simulation harness last wrote into the
    block's ``held`` array (e.g. :class:`repro.sim.split.ControllerProxy`)."""

    outputs_read_inputs = False

    def held(self, b):
        return b.held

    def outputs(self, b, em):
        for p in range(b.n_out):
            em.line(f"{em.y(p)} = {em.held(p)};")


class Refuse(NativeTemplate):
    """Always falls back to the Python path, with a stated reason."""

    def __init__(self, reason: str):
        self._reason = reason

    def refuse(self, block: Block) -> Optional[str]:
        return f"{type(block).__name__}: {self._reason}"


# ---------------------------------------------------------------------------
# emission helpers
# ---------------------------------------------------------------------------
def _py_clamp(em, v: str, lo: float, hi: float) -> str:
    """C for Python's ``min(max(v, lo), hi)`` — including the first-arg
    NaN retention of Python ``min``/``max`` (comparisons with NaN are
    false, so the running value is kept)."""
    m = em.tmp()
    em.line(f"double {m} = ({em.lit(lo)} > {v}) ? {em.lit(lo)} : {v};")
    r = em.tmp()
    em.line(f"double {r} = ({em.lit(hi)} < {m}) ? {em.lit(hi)} : {m};")
    return r


def _np_clip(em, v: str, lo: float, hi: float) -> str:
    """C for ``np.clip(v, lo, hi)`` — NaN propagates (both comparisons
    false keep the NaN input)."""
    m = em.tmp()
    em.line(f"double {m} = ({v} < {em.lit(lo)}) ? {em.lit(lo)} : {v};")
    r = em.tmp()
    em.line(f"double {r} = ({m} > {em.lit(hi)}) ? {em.lit(hi)} : {m};")
    return r


def _u16_wrap(em, v: str) -> str:
    """C for Python's ``int(v) % 65536`` (truncate, then non-negative
    modulo; ``+ 0.0`` turns a -0.0 into the int's +0.0)."""
    r = em.tmp()
    em.line(f"double {r} = fmod(trunc({v}), 65536.0) + 0.0;")
    em.line(f"if ({r} < 0.0) {r} += 65536.0;")
    return r


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------
class _Constant(NativeTemplate):
    def outputs(self, b, em):
        em.line(f"{em.y(0)} = {em.lit(b.value)};")


class _Step(NativeTemplate):
    def outputs(self, b, em):
        em.line(
            f"{em.y(0)} = (t >= {em.lit(b.step_time)}) ? "
            f"{em.lit(b.final)} : {em.lit(b.initial)};"
        )


class _Ramp(NativeTemplate):
    def outputs(self, b, em):
        em.line(
            f"{em.y(0)} = (t < {em.lit(b.start_time)}) ? {em.lit(b.initial)} : "
            f"({em.lit(b.initial)} + {em.lit(b.slope)} * (t - {em.lit(b.start_time)}));"
        )


class _SineWave(NativeTemplate):
    def outputs(self, b, em):
        import math
        w = 2 * math.pi * b.frequency  # same fold order as the Python expr
        em.line(
            f"{em.y(0)} = {em.lit(b.bias)} + {em.lit(b.amplitude)} * "
            f"sin({em.lit(w)} * t + {em.lit(b.phase)});"
        )


class _PulseGenerator(NativeTemplate):
    def outputs(self, b, em):
        ph = em.tmp()
        r = em.tmp()
        em.line(f"double {r};")
        em.line(f"if (t < {em.lit(b.delay)}) {{ {r} = 0.0; }}")
        em.line(
            f"else {{ double {ph} = fmod(t - {em.lit(b.delay)}, "
            f"{em.lit(b.period)}) / {em.lit(b.period)};"
        )
        em.line(f"  {r} = ({ph} < {em.lit(b.duty)}) ? {em.lit(b.amplitude)} : 0.0; }}")
        em.line(f"{em.y(0)} = {r};")


class _Clock(NativeTemplate):
    def outputs(self, b, em):
        em.line(f"{em.y(0)} = t;")


# ---------------------------------------------------------------------------
# math
# ---------------------------------------------------------------------------
class _Gain(NativeTemplate):
    def outputs(self, b, em):
        em.line(f"{em.y(0)} = {em.lit(b.gain)} * {em.u(0)};")


class _Bias(NativeTemplate):
    def outputs(self, b, em):
        em.line(f"{em.y(0)} = {em.u(0)} + {em.lit(b.bias)};")


class _Sum(NativeTemplate):
    def outputs(self, b, em):
        # faithful to the Python accumulator: acc = 0.0; acc += ±u_i
        expr = "0.0"
        for i, s in enumerate(b.signs):
            expr += f" + {em.u(i)}" if s == "+" else f" + -{em.u(i)}"
        em.line(f"{em.y(0)} = {expr};")


class _Product(NativeTemplate):
    def refuse(self, b):
        if "/" in b.ops:
            return (f"Product '{b.name}' divides (Python raises "
                    "ZeroDivisionError on zero operands)")
        return None

    def outputs(self, b, em):
        expr = "1.0"
        for i in range(len(b.ops)):
            expr += f" * {em.u(i)}"
        em.line(f"{em.y(0)} = {expr};")


class _Abs(NativeTemplate):
    def outputs(self, b, em):
        em.line(f"{em.y(0)} = fabs({em.u(0)});")


class _Sign(NativeTemplate):
    def outputs(self, b, em):
        em.line(f"{em.y(0)} = ({em.u(0)} == 0.0) ? 0.0 : copysign(1.0, {em.u(0)});")


class _MinMax(NativeTemplate):
    def outputs(self, b, em):
        # Python min/max over the input list: sequential compares keeping
        # the running value on False (NaN included)
        m = em.tmp()
        em.line(f"double {m} = {em.u(0)};")
        op = "<" if b.mode == "min" else ">"
        for i in range(1, b.n_in):
            em.line(f"{m} = ({em.u(i)} {op} {m}) ? {em.u(i)} : {m};")
        em.line(f"{em.y(0)} = {m};")


_MATH_FN_C = {
    "sin": "sin({u})", "cos": "cos({u})", "tan": "tan({u})",
    "exp": "exp({u})", "log": "log({u})", "log10": "log10({u})",
    "sqrt": "sqrt({u})", "atan": "atan({u})",
    "square": "{u} * {u}", "reciprocal": "1.0 / {u}",
}


class _MathFunction(NativeTemplate):
    def refuse(self, b):
        if b.function not in _MATH_FN_C:
            return f"MathFunction '{b.function}' has no native form"
        return None

    def outputs(self, b, em):
        v = em.tmp()
        em.line(f"double {v} = {em.u(0)};")
        em.line(f"{em.y(0)} = {_MATH_FN_C[b.function].format(u=v)};")


class _Relational(NativeTemplate):
    def outputs(self, b, em):
        em.line(f"{em.y(0)} = ({em.u(0)} {b.op} {em.u(1)}) ? 1.0 : 0.0;")


class _Logical(NativeTemplate):
    def outputs(self, b, em):
        bits = [f"({em.u(i)} != 0.0)" for i in range(b.n_in)]
        if b.op == "AND":
            cond = " && ".join(bits)
        elif b.op == "OR":
            cond = " || ".join(bits)
        elif b.op == "XOR":
            cond = "((" + " + ".join(bits) + ") % 2 == 1)"
        else:  # NOT
            cond = f"!{bits[0]}"
        em.line(f"{em.y(0)} = ({cond}) ? 1.0 : 0.0;")


# ---------------------------------------------------------------------------
# discrete
# ---------------------------------------------------------------------------
class _UnitDelay(NativeTemplate):
    def dwork(self, b):
        return [("x", 1)]

    def outputs(self, b, em):
        em.line(f"{em.y(0)} = {em.dw('x')};")

    def update(self, b, em):
        em.line(f"{em.dw('x')} = {em.u(0)};")


class _ZeroOrderHold(NativeTemplate):
    def outputs(self, b, em):
        em.line(f"{em.y(0)} = {em.u(0)};")


class _DiscreteIntegrator(NativeTemplate):
    def dwork(self, b):
        return [("x", 1)]

    def outputs(self, b, em):
        em.line(f"{em.y(0)} = {em.dw('x')};")

    def update(self, b, em):
        gt = b.gain * b.sample_time  # fold of the left-assoc g*Ts product
        nx = em.tmp()
        em.line(f"double {nx} = {em.dw('x')} + {em.lit(gt)} * {em.u(0)};")
        r = _py_clamp(em, nx, b.lower, b.upper)
        em.line(f"{em.dw('x')} = {r};")


class _DiscreteTransferFunction(NativeTemplate):
    def dwork(self, b):
        n = len(b.a) - 1
        return [("s", n)] if n else []

    def outputs(self, b, em):
        b0 = float(b.b[0])
        n = len(b.a) - 1
        u0 = em.u(0) if b.direct_feedthrough else "0.0"
        s0 = em.dw("s", 0) if n else "0.0"
        em.line(f"{em.y(0)} = {em.lit(b0)} * {u0} + {s0};")

    def update(self, b, em):
        n = len(b.a) - 1
        if n == 0:
            return
        u0 = em.tmp()
        em.line(f"double {u0} = {em.u(0)};")
        y = em.tmp()
        em.line(f"double {y} = {em.lit(float(b.b[0]))} * {u0} + {em.dw('s', 0)};")
        news = []
        for i in range(n):
            nxt = em.dw("s", i + 1) if i + 1 < n else "0.0"
            nv = em.tmp()
            em.line(
                f"double {nv} = {em.lit(float(b.b[i + 1]))} * {u0} - "
                f"{em.lit(float(b.a[i + 1]))} * {y} + {nxt};"
            )
            news.append(nv)
        for i, nv in enumerate(news):
            em.line(f"{em.dw('s', i)} = {nv};")


class _DiscreteDerivative(NativeTemplate):
    def dwork(self, b):
        return [("prev", 1), ("y", 1)]

    def outputs(self, b, em):
        em.line(
            f"{em.y(0)} = {em.lit(b.gain)} * ({em.u(0)} - {em.dw('prev')}) / "
            f"{em.lit(b.sample_time)};"
        )

    def update(self, b, em):
        em.line(f"{em.dw('prev')} = {em.u(0)};")


# ---------------------------------------------------------------------------
# nonlinear / discontinuities
# ---------------------------------------------------------------------------
class _Saturation(NativeTemplate):
    def outputs(self, b, em):
        v = em.tmp()
        em.line(f"double {v} = {em.u(0)};")
        r = _py_clamp(em, v, b.lower, b.upper)
        em.line(f"{em.y(0)} = {r};")


class _DeadZone(NativeTemplate):
    def outputs(self, b, em):
        v = em.tmp()
        em.line(f"double {v} = {em.u(0)};")
        em.line(
            f"{em.y(0)} = ({v} > {em.lit(b.zone_end)}) ? ({v} - {em.lit(b.zone_end)}) : "
            f"(({v} < {em.lit(b.zone_start)}) ? ({v} - {em.lit(b.zone_start)}) : 0.0);"
        )


class _Relay(NativeTemplate):
    def dwork(self, b):
        return [("on", 1)]

    def _next(self, b, em, v: str) -> str:
        nxt = em.tmp()
        em.line(
            f"double {nxt} = ({v} >= {em.lit(b.on_point)}) ? 1.0 : "
            f"(({v} <= {em.lit(b.off_point)}) ? 0.0 : {em.dw('on')});"
        )
        return nxt

    def outputs(self, b, em):
        v = em.tmp()
        em.line(f"double {v} = {em.u(0)};")
        nxt = self._next(b, em, v)
        em.line(f"{em.y(0)} = ({nxt} != 0.0) ? {em.lit(b.on_value)} : {em.lit(b.off_value)};")

    def update(self, b, em):
        v = em.tmp()
        em.line(f"double {v} = {em.u(0)};")
        nxt = self._next(b, em, v)
        em.line(f"{em.dw('on')} = {nxt};")


class _RateLimiter(NativeTemplate):
    def dwork(self, b):
        return [("y", 1)]

    def _limited(self, b, em) -> str:
        dmax = b.rising * b.sample_time
        dmin = b.falling * b.sample_time
        d = em.tmp()
        em.line(f"double {d} = {em.u(0)} - {em.dw('y')};")
        r = _py_clamp(em, d, dmin, dmax)
        out = em.tmp()
        em.line(f"double {out} = {em.dw('y')} + {r};")
        return out

    def outputs(self, b, em):
        em.line(f"{em.y(0)} = {self._limited(b, em)};")

    def update(self, b, em):
        em.line(f"{em.dw('y')} = {self._limited(b, em)};")


class _Quantizer(NativeTemplate):
    def outputs(self, b, em):
        iv = em.lit(b.interval)
        em.line(f"{em.y(0)} = {iv} * floor({em.u(0)} / {iv} + 0.5);")


class _Coulomb(NativeTemplate):
    def outputs(self, b, em):
        v = em.tmp()
        em.line(f"double {v} = {em.u(0)};")
        em.line(
            f"{em.y(0)} = ({v} == 0.0) ? 0.0 : "
            f"copysign({em.lit(b.offset)} + {em.lit(b.gain)} * fabs({v}), {v});"
        )


# ---------------------------------------------------------------------------
# extras
# ---------------------------------------------------------------------------
class _TransportDelay(NativeTemplate):
    def dwork(self, b):
        return [("fifo", b.delay_steps), ("pos", 1)]

    def dwork_init(self, b, ctx):
        return [float(v) for v in ctx.dwork["fifo"]] + [0.0]

    def outputs(self, b, em):
        p = em.tmp()
        em.line(f"int {p} = (int){em.dw('pos')};")
        em.line(f"{em.y(0)} = DW[{em.dw_index('fifo')} + {p}];")

    def update(self, b, em):
        p = em.tmp()
        em.line(f"int {p} = (int){em.dw('pos')};")
        em.line(f"DW[{em.dw_index('fifo')} + {p}] = {em.u(0)};")
        em.line(f"{p} = {p} + 1;")
        em.line(f"if ({p} >= {b.delay_steps}) {p} = 0;")
        em.line(f"{em.dw('pos')} = (double){p};")


class _Backlash(NativeTemplate):
    def dwork(self, b):
        return [("y", 1)]

    def _engaged(self, b, em) -> str:
        half = em.lit(b.width / 2.0)
        u0 = em.tmp()
        em.line(f"double {u0} = {em.u(0)};")
        r = em.tmp()
        em.line(
            f"double {r} = (({u0} - {em.dw('y')}) > {half}) ? ({u0} - {half}) : "
            f"((({em.dw('y')} - {u0}) > {half}) ? ({u0} + {half}) : {em.dw('y')});"
        )
        return r

    def outputs(self, b, em):
        em.line(f"{em.y(0)} = {self._engaged(b, em)};")

    def update(self, b, em):
        em.line(f"{em.dw('y')} = {self._engaged(b, em)};")


class _EdgeDetector(NativeTemplate):
    def dwork(self, b):
        return [("prev", 1)]

    def outputs(self, b, em):
        lv = em.tmp()
        em.line(f"double {lv} = ({em.u(0)} != 0.0) ? 1.0 : 0.0;")
        rising = f"(({em.dw('prev')} == 0.0) && ({lv} != 0.0))"
        falling = f"(({em.dw('prev')} != 0.0) && ({lv} == 0.0))"
        cond = {"rising": rising, "falling": falling,
                "both": f"({rising} || {falling})"}[b.edge]
        em.line(f"{em.y(0)} = {cond} ? 1.0 : 0.0;")

    def update(self, b, em):
        em.line(f"{em.dw('prev')} = ({em.u(0)} != 0.0) ? 1.0 : 0.0;")


# ---------------------------------------------------------------------------
# routing / lookup / conversion
# ---------------------------------------------------------------------------
class _Switch(NativeTemplate):
    def outputs(self, b, em):
        em.line(
            f"{em.y(0)} = ({em.u(1)} >= {em.lit(b.threshold)}) ? {em.u(0)} : {em.u(2)};"
        )


class _ManualSwitch(NativeTemplate):
    def outputs(self, b, em):
        em.line(f"{em.y(0)} = {em.u(b.position)};")


class _Lookup1D(NativeTemplate):
    def outputs(self, b, em):
        n = len(b.breakpoints)
        bp = em.const_arr([float(v) for v in b.breakpoints])
        vv = em.const_arr([float(v) for v in b.values])
        x = em.tmp()
        em.line(f"double {x} = {em.u(0)};")
        r = em.tmp()
        em.line(f"double {r};")
        if b.mode == "linear":
            # mirrors numpy's compiled_interp double path (incl. the
            # NaN-retry and exact-breakpoint shortcut)
            j, k, sl = em.tmp(), em.tmp(), em.tmp()
            em.line(f"if (isnan({x})) {r} = {x};")
            em.line(f"else if ({x} < {bp}[0]) {r} = {vv}[0];")
            em.line(f"else if ({x} >= {bp}[{n - 1}]) {r} = {vv}[{n - 1}];")
            em.line("else {")
            em.line(f"  int {j} = 0; int {k};")
            em.line(f"  for ({k} = 1; {k} < {n - 1}; {k}++) "
                    f"{{ if ({bp}[{k}] <= {x}) {j} = {k}; else break; }}")
            em.line(f"  if ({bp}[{j}] == {x}) {r} = {vv}[{j}];")
            em.line("  else {")
            em.line(f"    double {sl} = ({vv}[{j}+1] - {vv}[{j}]) / "
                    f"({bp}[{j}+1] - {bp}[{j}]);")
            em.line(f"    {r} = {sl} * ({x} - {bp}[{j}]) + {vv}[{j}];")
            em.line(f"    if (isnan({r})) {{")
            em.line(f"      {r} = {sl} * ({x} - {bp}[{j}+1]) + {vv}[{j}+1];")
            em.line(f"      if (isnan({r}) && {vv}[{j}] == {vv}[{j}+1]) {r} = {vv}[{j}];")
            em.line("    }")
            em.line("  }")
            em.line("}")
        else:  # flat: searchsorted(side="right") - 1, clipped
            j, k = em.tmp(), em.tmp()
            em.line(f"int {j};")
            em.line(f"if (isnan({x})) {j} = {n - 1};")  # NaN sorts last
            em.line("else {")
            em.line(f"  {j} = -1; int {k};")
            em.line(f"  for ({k} = 0; {k} < {n}; {k}++) "
                    f"{{ if ({bp}[{k}] <= {x}) {j} = {k}; else break; }}")
            em.line(f"  if ({j} < 0) {j} = 0;")
            em.line("}")
            em.line(f"{r} = {vv}[{j}];")
        em.line(f"{em.y(0)} = {r};")


class _DataTypeConversion(NativeTemplate):
    def refuse(self, b):
        f = b.target.fixpt
        if f is None:
            return None
        from repro.fixpt.types import Overflow
        if f.overflow is Overflow.WRAP:
            return (f"DataTypeConversion '{b.name}': WRAP overflow needs "
                    "arbitrary-precision integer wrap")
        if f.word_length > 52:
            return (f"DataTypeConversion '{b.name}': word length "
                    f"{f.word_length} exceeds exact double range")
        return None

    def outputs(self, b, em):
        f = b.target.fixpt
        if f is None:
            if b.target.name == "boolean":
                em.line(f"{em.y(0)} = ({em.u(0)} != 0.0) ? 1.0 : 0.0;")
            else:
                em.line(f"{em.y(0)} = {em.u(0)};")
            return
        from repro.fixpt.types import Rounding
        scale = em.lit(f.scale)
        rmin = em.lit(float(f.raw_min))
        rmax = em.lit(float(f.raw_max))
        x, r, q = em.tmp(), em.tmp(), em.tmp()
        em.line(f"double {x} = {em.u(0)};")
        em.line(f"double {r};")
        # NaN: Python raises here; the C path yields NaN (never reached
        # by a run the Python paths complete)
        em.line(f"if (isnan({x})) {r} = {x};")
        em.line(f"else if (isinf({x})) {r} = ({x} > 0.0) ? {rmax} : {rmin};")
        em.line("else {")
        em.line(f"  double {q} = {x} / {scale};")
        if f.rounding is Rounding.FLOOR:
            em.line(f"  {q} = floor({q});")
        elif f.rounding is Rounding.CEIL:
            em.line(f"  {q} = ceil({q});")
        elif f.rounding is Rounding.ZERO:
            em.line(f"  {q} = trunc({q});")
        else:  # NEAREST: ties away from zero
            em.line(f"  {q} = ({q} >= 0.0) ? floor({q} + 0.5) : ceil({q} - 0.5);")
        em.line(f"  if ({q} < {rmin}) {q} = {rmin}; "
                f"else if ({q} > {rmax}) {q} = {rmax};")
        em.line(f"  {r} = {q} + 0.0;")  # the raw int's +0.0, never -0.0
        em.line("}")
        em.line(f"{em.y(0)} = {r} * {scale};")


# ---------------------------------------------------------------------------
# continuous
# ---------------------------------------------------------------------------
class _Integrator(NativeTemplate):
    def outputs(self, b, em):
        x = em.tmp()
        em.line(f"double {x} = {em.x(0)};")
        r = _np_clip(em, x, b.lower, b.upper)
        em.line(f"{em.y(0)} = {r};")

    def deriv(self, b, em):
        x, u0 = em.tmp(), em.tmp()
        em.line(f"double {x} = {em.x(0)};")
        em.line(f"double {u0} = {em.u(0)};")
        em.line(
            f"{em.xd(0)} = (({x} >= {em.lit(b.upper)}) && ({u0} > 0.0)) ? 0.0 : "
            f"((({x} <= {em.lit(b.lower)}) && ({u0} < 0.0)) ? 0.0 : {u0});"
        )


class _StateSpace(NativeTemplate):
    def refuse(self, b):
        if b.A.shape[0] != 1 or b.n_in != 1:
            return (f"StateSpace '{b.name}' has {b.A.shape[0]} states / "
                    f"{b.n_in} inputs; only 1x1 avoids BLAS accumulation "
                    "order differences")
        return None

    def outputs(self, b, em):
        x0, u0 = em.tmp(), em.tmp()
        em.line(f"double {x0} = {em.x(0)};")
        em.line(f"double {u0} = {em.u(0)};")
        for p in range(b.n_out):
            em.line(
                f"{em.y(p)} = {em.lit(float(b.C[p, 0]))} * {x0} + "
                f"{em.lit(float(b.D[p, 0]))} * {u0};"
            )

    def deriv(self, b, em):
        em.line(
            f"{em.xd(0)} = {em.lit(float(b.A[0, 0]))} * {em.x(0)} + "
            f"{em.lit(float(b.B[0, 0]))} * {em.u(0)};"
        )


# ---------------------------------------------------------------------------
# control blocks
# ---------------------------------------------------------------------------
class _PIDController(NativeTemplate):
    def dwork(self, b):
        return [("i", 1), ("e_prev", 1)]

    def outputs(self, b, em):
        g = b.gains
        e, d = em.tmp(), em.tmp()
        em.line(f"double {e} = {em.u(0)};")
        if g.kd:
            em.line(f"double {d} = ({e} - {em.dw('e_prev')}) / {em.lit(b.sample_time)};")
        else:
            em.line(f"double {d} = 0.0;")
        uu = em.tmp()
        em.line(
            f"double {uu} = {em.lit(g.kp)} * {e} + {em.dw('i')} + {em.lit(g.kd)} * {d};"
        )
        r = _py_clamp(em, uu, g.u_min, g.u_max)
        em.line(f"{em.y(0)} = {r};")

    def update(self, b, em):
        g = b.gains
        kits = g.ki * b.sample_time  # fold of the left-assoc ki*Ts product
        e, us, ig = em.tmp(), em.tmp(), em.tmp()
        em.line(f"double {e} = {em.u(0)};")
        em.line(f"double {us} = {em.lit(g.kp)} * {e} + {em.dw('i')};")
        em.line(
            f"int {ig} = (({em.lit(g.u_min)} < {us}) && ({us} < {em.lit(g.u_max)})) || "
            f"(({us} >= {em.lit(g.u_max)}) && ({e} < 0.0)) || "
            f"(({us} <= {em.lit(g.u_min)}) && ({e} > 0.0));"
        )
        em.line(f"if ({ig}) {em.dw('i')} = {em.dw('i')} + {em.lit(kits)} * {e};")
        em.line(f"{em.dw('e_prev')} = {e};")


class _LowPassFilter(NativeTemplate):
    def dwork(self, b):
        return [("y", 1)]

    def outputs(self, b, em):
        em.line(f"{em.y(0)} = {em.dw('y')};")

    def update(self, b, em):
        em.line(
            f"{em.dw('y')} = {em.dw('y')} + {em.lit(b.alpha)} * "
            f"({em.u(0)} - {em.dw('y')});"
        )


class _QuadratureSpeed(NativeTemplate):
    def dwork(self, b):
        return [("prev", 1), ("primed", 1)]

    def outputs(self, b, em):
        nr = _u16_wrap(em, em.u(0))
        r, d = em.tmp(), em.tmp()
        em.line(f"double {r};")
        em.line(f"if ({em.dw('primed')} == 0.0) {r} = 0.0;")
        em.line("else {")
        em.line(f"  double {d} = fmod({nr} - {em.dw('prev')}, 65536.0);")
        em.line(f"  if ({d} < 0.0) {d} += 65536.0;")
        em.line(f"  if ({d} >= 32768.0) {d} -= 65536.0;")
        em.line(f"  {r} = {d} * {em.lit(b.rad_per_count)} / {em.lit(b.sample_time)};")
        em.line("}")
        em.line(f"{em.y(0)} = {r};")

    def update(self, b, em):
        nr = _u16_wrap(em, em.u(0))
        em.line(f"{em.dw('prev')} = {nr};")
        em.line(f"{em.dw('primed')} = 1.0;")


class _Staircase(NativeTemplate):
    def outputs(self, b, em):
        n = len(b.times)
        tt = em.const_arr([float(v) for v in b.times])
        ll = em.const_arr([float(v) for v in b.levels])
        j, k = em.tmp(), em.tmp()
        em.line(f"int {j} = -1; int {k};")
        em.line(f"for ({k} = 0; {k} < {n}; {k}++) "
                f"{{ if ({tt}[{k}] <= t) {j} = {k}; else break; }}")
        em.line(f"{em.y(0)} = ({j} >= 0) ? {ll}[{j}] : 0.0;")


# ---------------------------------------------------------------------------
# plant blocks
# ---------------------------------------------------------------------------
class _PowerStage(NativeTemplate):
    def outputs(self, b, em):
        u0 = em.tmp()
        em.line(f"double {u0} = {em.u(0)};")
        duty = _py_clamp(em, u0, 0.0, 1.0)
        v = em.tmp()
        if b.bipolar:
            em.line(f"double {v} = (2.0 * {duty} - 1.0) * {em.lit(b.v_supply)};")
        else:
            em.line(f"double {v} = {duty} * {em.lit(b.v_supply)};")
        vd = em.lit(b.v_drop)
        em.line(f"if ({v} > {vd}) {v} = {v} - {vd};")
        em.line(f"else if ({v} < -{vd}) {v} = {v} + {vd};")
        em.line(f"else {v} = 0.0;")
        em.line(f"{em.y(0)} = {v};")


class _DCMotor(NativeTemplate):
    def outputs(self, b, em):
        # [speed, angle, current] from states [current, speed, angle]
        em.line(f"{em.y(0)} = {em.x(1)};")
        em.line(f"{em.y(1)} = {em.x(2)};")
        em.line(f"{em.y(2)} = {em.x(0)};")

    def deriv(self, b, em):
        p = b.params
        v, tl, i, w = em.tmp(), em.tmp(), em.tmp(), em.tmp()
        em.line(f"double {v} = {em.u(0)};")
        em.line(f"double {tl} = {em.u(1)};")
        em.line(f"double {i} = {em.x(0)};")
        em.line(f"double {w} = {em.x(1)};")
        em.line(
            f"{em.xd(0)} = ({v} - {em.lit(p.R)} * {i} - {em.lit(p.Ke)} * {w}) / "
            f"{em.lit(p.L)};"
        )
        tc = em.tmp()
        em.line(
            f"double {tc} = (fabs({w}) > 0x1.47ae147ae147bp-7) ? "
            f"copysign({em.lit(p.tau_coulomb)}, {w}) : "
            f"({em.lit(p.tau_coulomb)} * {w} / 0x1.47ae147ae147bp-7);"
        )
        em.line(
            f"{em.xd(1)} = ({em.lit(p.Kt)} * {i} - {em.lit(p.b)} * {w} - {tc} - {tl}) / "
            f"{em.lit(p.J)};"
        )
        em.line(f"{em.xd(2)} = {w};")


class _IRCEncoder(NativeTemplate):
    def outputs(self, b, em):
        import math
        turns, counts, frac, r = em.tmp(), em.tmp(), em.tmp(), em.tmp()
        em.line(f"double {turns} = {em.u(0)} / {em.lit(2 * math.pi)};")
        em.line(f"double {counts} = floor({turns} * {em.lit(float(b._cpr))});")
        em.line(f"double {frac} = {turns} - floor({turns});")
        # ``+ 0.0``: the int count's +0.0, never -0.0
        em.line(f"double {r} = fmod({counts}, 65536.0) + 0.0;")
        em.line(f"if ({r} < 0.0) {r} += 65536.0;")
        em.line(f"{em.y(0)} = {r};")
        em.line(f"{em.y(1)} = ({frac} < {em.lit(b._index_width)}) ? 1.0 : 0.0;")


# ---------------------------------------------------------------------------
# Processor Expert peripheral blocks (MIL mode only — PIL/HW touch the
# serial link / hardware bean and must stay on the Python path)
# ---------------------------------------------------------------------------
def _pe_mil_only(block) -> Optional[str]:
    from repro.core.blocks import PEBlockMode
    if block.mode is not PEBlockMode.MIL:
        return f"PE block '{block.name}' is in {block.mode.name} mode"
    return None


class _ADCBlock(NativeTemplate):
    def refuse(self, b):
        r = _pe_mil_only(b)
        if r:
            return r
        try:
            b.bean.effective_bits
        except Exception as exc:  # bean not configured for MIL math
            return f"ADC '{b.name}': {exc}"
        return None

    def outputs(self, b, em):
        bits = b.bean.effective_bits
        raw_max = (1 << bits) - 1
        span = b.vref_high - b.vref_low
        c = em.tmp()
        # ``+ 0.0``: the int code's +0.0, never -0.0
        em.line(
            f"double {c} = trunc((({em.u(0)} - {em.lit(b.vref_low)}) / "
            f"{em.lit(span)}) * {em.lit(float(raw_max + 1))}) + 0.0;"
        )
        em.line(f"{c} = (0.0 > {c}) ? 0.0 : {c};")
        em.line(f"{em.y(0)} = ({em.lit(float(raw_max))} < {c}) ? "
                f"{em.lit(float(raw_max))} : {c};")


class _PWMBlock(NativeTemplate):
    def refuse(self, b):
        return _pe_mil_only(b)

    def outputs(self, b, em):
        u0 = em.tmp()
        em.line(f"double {u0} = {em.u(0)};")
        duty = _py_clamp(em, u0, 0.0, 1.0)
        res = b.bean._derived.get("duty_resolution")
        if res is None:
            em.line(f"{em.y(0)} = {duty};")
        else:
            # Python round() is half-even — nearbyint under the default
            # FE_TONEAREST mode
            em.line(f"{em.y(0)} = nearbyint({duty} / {em.lit(res)}) * {em.lit(res)};")


class _QuadDecBlock(NativeTemplate):
    def refuse(self, b):
        return _pe_mil_only(b)

    def outputs(self, b, em):
        em.line(f"{em.y(0)} = {_u16_wrap(em, em.u(0))};")


class _TimerIntBlock(NativeTemplate):
    def refuse(self, b):
        return _pe_mil_only(b)
    # no ports; the OnInterrupt fire is a no-op when nothing is wired
    # (the planner-level event check guarantees that before lowering)


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------
_installed = False
#: simulators bind concurrently (SimServe thread workers): registration
#: must finish before any of them looks a template up
_install_lock = threading.Lock()


def install(reg) -> None:
    """Register every native template on ``reg`` (idempotent per
    registry: re-registration just overwrites with equal templates)."""
    from repro.model import library as lib
    from repro.control.pid import PIDController, FixedPointPID
    from repro.control.filters import LowPassFilter
    from repro.control.speed import QuadratureSpeed
    from repro.control.setpoint import Staircase
    from repro.plants.power_stage import PowerStage
    from repro.plants.dc_motor import DCMotor
    from repro.plants.encoder import IRCEncoder
    from repro.core.blocks import (
        ADCBlock, PWMBlock, QuadDecBlock, TimerIntBlock, BitIOBlock,
    )
    from repro.stateflow.block import ChartBlock

    r = reg.register_native
    # sources
    r(lib.Constant, _Constant())
    r(lib.Step, _Step())
    r(lib.Ramp, _Ramp())
    r(lib.SineWave, _SineWave())
    r(lib.PulseGenerator, _PulseGenerator())
    r(lib.Clock, _Clock())
    r(lib.WhiteNoise, Refuse("draws RNG samples in outputs()"))
    # math
    r(lib.Gain, _Gain())
    r(lib.Bias, _Bias())
    r(lib.Sum, _Sum())
    r(lib.Product, _Product())
    r(lib.Abs, _Abs())
    r(lib.Sign, _Sign())
    r(lib.MinMax, _MinMax())
    r(lib.MathFunction, _MathFunction())
    r(lib.RelationalOperator, _Relational())
    r(lib.LogicalOperator, _Logical())
    # discrete
    r(lib.UnitDelay, _UnitDelay())
    r(lib.Memory, _UnitDelay())  # identical dwork/output/update shape
    r(lib.ZeroOrderHold, _ZeroOrderHold())
    r(lib.DiscreteIntegrator, _DiscreteIntegrator())
    r(lib.DiscreteTransferFunction, _DiscreteTransferFunction())
    r(lib.DiscreteDerivative, _DiscreteDerivative())
    # nonlinear
    r(lib.Saturation, _Saturation())
    r(lib.DeadZone, _DeadZone())
    r(lib.Relay, _Relay())
    r(lib.RateLimiter, _RateLimiter())
    r(lib.Quantizer, _Quantizer())
    r(lib.Coulomb, _Coulomb())
    # extras
    r(lib.TransportDelay, _TransportDelay())
    r(lib.Backlash, _Backlash())
    r(lib.EdgeDetector, _EdgeDetector())
    # routing / lookup / conversion
    r(lib.Switch, _Switch())
    r(lib.ManualSwitch, _ManualSwitch())
    r(lib.Lookup1D, _Lookup1D())
    r(lib.DataTypeConversion, _DataTypeConversion())
    # continuous (TransferFunction resolves to _StateSpace via the MRO)
    r(lib.Integrator, _Integrator())
    r(lib.StateSpace, _StateSpace())
    # boundary / impossible blocks
    r(lib.Inport, Refuse("co-simulation boundary port"))
    r(lib.Outport, Refuse("co-simulation boundary port"))
    r(lib.Assertion, Refuse("raises on violated invariants"))
    # control
    r(PIDController, _PIDController())
    r(FixedPointPID, Refuse("computes in Fx fixed-point objects"))
    r(LowPassFilter, _LowPassFilter())
    r(QuadratureSpeed, _QuadratureSpeed())
    r(Staircase, _Staircase())
    # plants
    r(PowerStage, _PowerStage())
    r(DCMotor, _DCMotor())
    r(IRCEncoder, _IRCEncoder())
    # PE peripherals
    r(ADCBlock, _ADCBlock())
    r(PWMBlock, _PWMBlock())
    r(QuadDecBlock, _QuadDecBlock())
    r(TimerIntBlock, _TimerIntBlock())
    r(BitIOBlock, Refuse("edge-event I/O with wired side effects"))
    r(ChartBlock, Refuse("stateflow charts execute Python actions"))


def ensure_installed():
    """Install the native set on the shared default registry once (plus
    any native templates block modules queued since) and return that
    registry."""
    global _installed
    from repro.codegen import registry_hooks
    from repro.codegen.templates import default_registry

    reg = default_registry()
    with _install_lock:
        if not _installed:
            install(reg)
            _installed = True
        registry_hooks.drain_native()
    return reg
