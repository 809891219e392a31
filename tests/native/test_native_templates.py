"""Golden-file tests for the unified C template engine.

The generated translation unit is a *deterministic* function of the
compiled model + options: same doc, same dt, same solver -> the same
bytes.  The goldens under ``tests/native/golden/`` pin that contract —
the TU followed by its parameter vector, as ``python -m repro.codegen
dump`` prints them — so template edits show up as a reviewable C diff
(regenerate with
``REPRO_UPDATE_GOLDEN=1 pytest tests/native/test_native_templates.py``)
— and remind you to bump ``TEMPLATE_VERSION`` so cached ``.so`` files
are invalidated.

These tests only *generate* C; they run with or without a compiler.
"""

import math
import os
import pathlib

import numpy as np
import pytest

from repro.model import Simulator, SimulationOptions
from repro.native import (
    TEMPLATE_VERSION,
    NativeLoweringError,
    generate_program,
    generate_tu,
)
from repro.native.emit import clit

from tests.model.test_kernels import (
    LIBRARY,
    harness,
    mixed_rate_model,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "mixed_rate_rk4": (mixed_rate_model, 1e-3, "rk4"),
    "mixed_rate_euler": (mixed_rate_model, 1e-3, "euler"),
    "transfer_function_rk4": (harness(LIBRARY["transfer_function"]), 1e-3, "rk4"),
    "transport_delay_rk4": (harness(LIBRARY["transport_delay"]), 1e-3, "rk4"),
}


def tu_for(factory, dt, solver):
    sim = Simulator(
        factory().compile(dt),
        SimulationOptions(dt=dt, t_final=0.05, solver=solver, native=False),
    )
    return generate_tu(sim)


class TestGolden:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_golden(self, name):
        factory, dt, solver = CASES[name]
        tu = tu_for(factory, dt, solver)
        path = GOLDEN / f"{name}.c"
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            GOLDEN.mkdir(exist_ok=True)
            path.write_text(tu)
        assert path.exists(), (
            f"golden {path} missing — run with REPRO_UPDATE_GOLDEN=1"
        )
        assert tu == path.read_text(), (
            f"generated TU for '{name}' drifted from its golden; if the "
            f"change is intentional, bump TEMPLATE_VERSION and regenerate "
            f"with REPRO_UPDATE_GOLDEN=1"
        )

    def test_generation_is_deterministic(self):
        factory, dt, solver = CASES["mixed_rate_rk4"]
        assert tu_for(factory, dt, solver) == tu_for(factory, dt, solver)

    def test_header_carries_template_version(self):
        factory, dt, solver = CASES["mixed_rate_rk4"]
        tu = tu_for(factory, dt, solver)
        assert f"template: v{TEMPLATE_VERSION}" in tu
        # v6: the minor pass runs what no derivative reads only when the
        # integrator passes ``full``, at the last step of an nx_run call;
        # v7: what a derivative reads stops at a block whose template's
        # outputs read no input (a co-simulation proxy)
        assert TEMPLATE_VERSION == "7"
        assert "static void out_minor(const nx_ctx *c, double t, int full)" in tu
        assert "    integrate(c, t, i == n - 1);" in tu
        for sym in ("nx_ctx", "nx_run"):
            assert sym in tu
        # nx_run is the one entry point: no per-step export
        for sym in ("nx_out_major", "nx_finish"):
            assert sym not in tu
        # reentrant: no file-scope state, parameter tables included
        assert not [ln for ln in tu.splitlines()
                    if ln.startswith(("static double", "static const"))]


class TestHeldOutputs:
    """A PIL plant's controller proxy lowers to reads of its own ``held``
    array, which the context borrows (no compiler needed to check)."""

    def plant(self):
        from repro.casestudy import ServoConfig, build_servo_model
        from repro.sim import split_plant_model

        plant, proxy = split_plant_model(
            build_servo_model(ServoConfig()).model, "controller"
        )
        sim = Simulator(
            plant.compile(1e-4),
            SimulationOptions(dt=1e-4, t_final=0.01, native=False),
        )
        sim.initialize()
        return sim, proxy

    def test_proxy_reads_its_held_buffer(self):
        sim, proxy = self.plant()
        program = generate_program(sim, sim.fast_path.plan)
        assert len(program.held) == 1 and program.held[0] is proxy.held
        assert "= c->H[0][0];" in program.source

    @pytest.mark.parametrize("bad", [[0.0], np.zeros(1, dtype=np.float32),
                                     np.zeros(0)])
    def test_unusable_held_buffer_refuses(self, bad):
        sim, proxy = self.plant()
        proxy.held = bad
        with pytest.raises(NativeLoweringError):
            generate_program(sim, sim.fast_path.plan)


class TestDumpCLI:
    def test_dump_servo_to_stdout(self, capsys):
        from repro.codegen.__main__ import main

        assert main(["dump", "servo", "--dt", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("/* generated by repro.native")
        assert "nx_run" in out

    def test_dump_json_model_to_file(self, tmp_path, capsys):
        from repro.codegen.__main__ import main
        from repro.model.io import save_model

        doc = tmp_path / "rates.json"
        save_model(mixed_rate_model(), str(doc))
        out_c = tmp_path / "rates.c"
        assert main(["dump", str(doc), "--dt", "1e-3",
                     "--out", str(out_c)]) == 0
        assert out_c.read_text() == tu_for(mixed_rate_model, 1e-3, "rk4")

    def test_dump_refusal_exits_nonzero(self, tmp_path, capsys):
        from repro.codegen.__main__ import main
        from repro.model.io import save_model

        doc = tmp_path / "noise.json"
        save_model(harness(LIBRARY["white_noise"])(), str(doc))
        assert main(["dump", str(doc)]) == 2
        assert "does not lower" in capsys.readouterr().err


class TestLiterals:
    """C literal rendering must round-trip every double bit-exactly."""

    @pytest.mark.parametrize(
        "v",
        [0.0, 1.0, -1.0, 0.1, -0.1, 1e-308, 5e-324, 1.7976931348623157e308,
         math.pi, -math.pi, 2.0 / 3.0, 65536.0, -0.0],
    )
    def test_hex_round_trip(self, v):
        lit = clit(v)
        assert float.fromhex(lit.strip("()")) == v

    def test_specials(self):
        assert clit(math.inf) == "INFINITY"
        assert clit(-math.inf) == "(-INFINITY)"
        assert clit(math.nan) == "NAN"

    def test_negative_literals_parenthesized(self):
        """``-x`` must never token-paste into ``--``."""
        assert clit(-1.0).startswith("(")
        assert clit(-1.0).endswith(")")
