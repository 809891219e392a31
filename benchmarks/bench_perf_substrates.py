"""Host-performance benchmarks of the substrates themselves.

Not a paper experiment — engineering telemetry for the library: how fast
the simulation engine, the MCU event queue, the packet codec and the
fixed-point kernels run on the host.  Tracked so regressions in the hot
loops (the profile-first rule of the HPC guides) are caught by CI.
"""

import numpy as np

from repro.casestudy import ServoConfig, build_servo_model
from repro.comm import PacketCodec, PacketDecoder, PacketType
from repro.fixpt import Q15, quantize_array
from repro.mcu import InterruptSource, MCUDevice, MC56F8367
from repro.model import Simulator, SimulationOptions


def test_perf_engine_steps(benchmark):
    """Closed-loop servo MIL: major steps per second (kernel fast path;
    native off, since a bound native executor replaces the fast path)."""
    sm = build_servo_model(ServoConfig(setpoint=100.0))
    sim = Simulator(sm.model,
                    SimulationOptions(dt=1e-4, t_final=10.0, native=False))
    sim.initialize()
    assert sim.fast_path is not None, sim.kernel_fallback_reason

    def run_1000_steps():
        for _ in range(1000):
            sim.advance()

    benchmark(run_1000_steps)


def test_perf_engine_steps_reference(benchmark):
    """Same loop on the reference interpreter — the kernel-speedup base."""
    sm = build_servo_model(ServoConfig(setpoint=100.0))
    sim = Simulator(
        sm.model,
        SimulationOptions(dt=1e-4, t_final=10.0, use_kernels=False),
    )
    sim.initialize()

    def run_1000_steps():
        for _ in range(1000):
            sim.advance()

    benchmark(run_1000_steps)


def test_perf_campaign_cells(benchmark):
    """Fault-campaign throughput: one raw+reliable sweep cell pair."""
    from perf_harness import _make_pil

    from repro.faults import BurstErrors, FaultCampaign, FaultPlan

    plan = FaultPlan([BurstErrors(start=0.01, duration=0.05, rate=0.2)], seed=11)
    campaign = FaultCampaign(
        make_pil=_make_pil, plan=plan, t_final=0.1, reference=100.0
    )

    benchmark(lambda: campaign.run([1.0]))


def test_perf_device_event_queue(benchmark):
    """MCU simulator: interrupt dispatch throughput."""
    dev = MCUDevice(MC56F8367)
    dev.intc.register(InterruptSource("t", priority=1, cycles=100))

    def run_events():
        t0 = dev.time
        for k in range(1000):
            dev.schedule(t0 + k * 1e-5, lambda: dev.intc.request("t"))
        dev.run_for(1000 * 1e-5 + 1e-3)

    benchmark(run_events)


def test_perf_packet_codec(benchmark):
    """PIL protocol: encode+decode round trips per second."""
    codec = PacketCodec()

    def roundtrip_100():
        dec = PacketDecoder()
        for k in range(100):
            dec.feed(codec.encode(PacketType.DATA, [k & 0xFFFF, 1234, 42]))
        assert len(dec.packets) == 100

    benchmark(roundtrip_100)


def test_perf_fixpt_vector_quantize(benchmark):
    """Vectorized Q15 quantization of a 100k-sample trajectory."""
    rng = np.random.default_rng(0)
    data = rng.uniform(-1, 1, size=100_000)

    benchmark(lambda: quantize_array(data, Q15))
