"""The PEERT embedded target.

The build pipeline follows paper section 5: the target "manages the code
generation process ... is used for the automatic configuration of beans
(it for example enables the code generation for methods used in the
corresponding tlc file) ... moreover starts the generation of beans code
by PE and integrates the code generated by RTW to the code generated by
PE.  Then the PE project is complete and can be used for building the
application."

Concretely, :meth:`PEERTTarget.build`:

1. locates the controller subsystem and its mandatory Processor Expert
   (CPU) block,
2. synchronises the PE blocks into a PE project (:class:`~repro.core.
   sync.ModelProjectSync`) and enables the bean events the diagram's
   event lines use,
3. validates the project against the chip (errors abort the build),
4. compiles the controller subsystem alone (the "code is of course
   generated for the controller subsystem only"),
5. generates the RTW model code with the PE-block templates and merges in
   the PE-generated HAL,
6. returns a :class:`DeployedApplication`, whose :meth:`deploy` step is
   the flash-and-boot equivalent: beans bind to a simulated MCU and the
   virtual executable's ISR task set is installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.codegen.generator import CodeGenerator, GeneratedArtifacts
from repro.codegen.vexe import ISRTask, VirtualExecutable
from repro.mcu.device import MCUDevice
from repro.mcu.interrupts import DispatchMode
from repro.model.compiled import CompiledModel
from repro.model.executor import AtomicExecutor
from repro.model.graph import Model
from repro.model.library import FunctionCallSubsystem, Subsystem
from repro.pe.halgen import ApiStyle, HalBundle, generate_hal
from repro.pe.project import PEProject
from repro.rt.profiler import Profiler
from repro.rt.runtime import PRIORITY_EVENT, PRIORITY_TICK

from .blocks import (
    ADCBlock,
    BitIOBlock,
    PEBlock,
    PEBlockMode,
    ProcessorExpertConfig,
    PWMBlock,
    QuadDecBlock,
    TimerIntBlock,
)
from .sync import ModelProjectSync
from .templates import pe_registry


class TargetError(Exception):
    """Build or deployment failure."""


#: Hook points of the build pipeline, in firing order — the equivalent of
#: the ``peert_make_rtw_hook.m`` entry points ("there are several points in
#: this process, where user defined hooks can be called", section 3).
BUILD_HOOK_POINTS = (
    "entry",             # before anything: (target,)
    "after_sync",        # beans registered: (target, project)
    "before_validate",   # last chance to adjust beans: (target, project)
    "after_codegen",     # RTW artifacts exist: (target, artifacts)
    "after_hal",         # PE HAL merged in: (target, artifacts, hal)
    "exit",              # application assembled: (target, app)
)


class PEERTTarget:
    """The code-generation target: single model in, application out."""

    def __init__(
        self,
        model: Model,
        controller: str = "controller",
        dt: Optional[float] = None,
        style: ApiStyle = ApiStyle.PE,
        dispatch_mode: DispatchMode = DispatchMode.NONPREEMPTIVE,
    ):
        self.model = model
        self.controller_name = controller
        self.dt = dt
        self.style = style
        self.dispatch_mode = dispatch_mode
        self._hooks: dict[str, list] = {p: [] for p in BUILD_HOOK_POINTS}

    # ------------------------------------------------------------------
    # user hooks ("cooperation with the target specific development tools")
    # ------------------------------------------------------------------
    def add_hook(self, point: str, fn) -> None:
        """Register a callable at one of :data:`BUILD_HOOK_POINTS`."""
        if point not in self._hooks:
            raise ValueError(
                f"unknown hook point '{point}'; choose from {BUILD_HOOK_POINTS}"
            )
        self._hooks[point].append(fn)

    def _fire(self, point: str, *args) -> None:
        for fn in self._hooks[point]:
            fn(self, *args)

    # ------------------------------------------------------------------
    def build(self) -> "DeployedApplication":
        self._fire("entry")
        ctrl = self.model.block(self.controller_name)
        if not isinstance(ctrl, Subsystem):
            raise TargetError(
                f"'{self.controller_name}' is not a subsystem; PEERT generates "
                "code for the controller subsystem only"
            )
        inner = ctrl.inner
        configs = [
            b for b in inner.blocks.values() if isinstance(b, ProcessorExpertConfig)
        ]
        if not configs:
            raise TargetError(
                "the controller subsystem must contain the Processor Expert "
                "block (insert it as the first block from the PE block set)"
            )
        if len(configs) > 1:
            raise TargetError("only one Processor Expert block is allowed")
        config = configs[0]

        # model -> project synchronisation
        project = PEProject(self.model.name, cpu=config.bean)
        sync = ModelProjectSync(inner, project)
        self._fire("after_sync", project)

        # enable the bean events the diagram's event lines actually use —
        # the "automatic configuration of beans" hook
        for ev in inner.event_connections:
            src = inner.blocks[ev.src]
            if isinstance(src, PEBlock) and src.EVENT_NAMES:
                src.bean.enable_event(src.EVENT_NAMES[ev.event_port])

        self._fire("before_validate", project)
        report = project.validate()
        if not report.ok:
            raise TargetError(
                "Processor Expert validation failed:\n"
                + "\n".join(str(f) for f in report.errors)
            )

        dt = self._resolve_base_rate(inner)
        cm = CompiledModel.build(inner, dt)
        registry = pe_registry(self.style)
        artifacts = CodeGenerator(
            cm, project.chip, name=self.model.name, registry=registry
        ).generate()
        self._fire("after_codegen", artifacts)
        hal = generate_hal(project, self.style)
        # "integrates the code generated by RTW to the code generated by PE"
        artifacts.files.update(hal.files)
        self._fire("after_hal", artifacts, hal)
        app = DeployedApplication(
            model=self.model,
            controller=ctrl,
            cm=cm,
            project=project,
            sync=sync,
            artifacts=artifacts,
            hal=hal,
            dt=dt,
            dispatch_mode=self.dispatch_mode,
            validation=report,
        )
        self._fire("exit", app)
        return app

    def _resolve_base_rate(self, inner: Model) -> float:
        if self.dt is not None:
            return self.dt
        timers = [b for b in inner.blocks.values() if isinstance(b, TimerIntBlock)]
        if timers:
            return min(b.sample_time for b in timers)
        rates = [
            b.sample_time
            for b in inner.blocks.values()
            if getattr(b, "sample_time", -1.0) > 0.0
        ]
        if rates:
            return min(rates)
        raise TargetError(
            "cannot infer the base rate: add a TimerInt block or give "
            "discrete sample times (or pass dt= explicitly)"
        )


@dataclass
class DeployedApplication:
    """A built application: artifacts + the means to run it on the MCU."""

    model: Model
    controller: Subsystem
    cm: CompiledModel
    project: PEProject
    sync: ModelProjectSync
    artifacts: GeneratedArtifacts
    hal: HalBundle
    dt: float
    dispatch_mode: DispatchMode
    validation: object = None
    device: Optional[MCUDevice] = None
    executor: Optional[AtomicExecutor] = None
    vexe: Optional[VirtualExecutable] = None
    mode: PEBlockMode = PEBlockMode.MIL
    pil_buffer: dict = field(default_factory=dict)
    step_count: int = 0
    #: callbacks run after every periodic step (the PIL image appends the
    #: packet-composition code here)
    post_step_callbacks: list = field(default_factory=list)

    # ------------------------------------------------------------------
    # structure queries (used by the co-simulation harnesses)
    # ------------------------------------------------------------------
    def pe_blocks(self) -> list[PEBlock]:
        return [
            b for b in self.cm.nodes.values()
            if isinstance(b, PEBlock) and not isinstance(b, ProcessorExpertConfig)
        ]

    def timer_blocks(self) -> list[TimerIntBlock]:
        return [b for b in self.cm.nodes.values() if isinstance(b, TimerIntBlock)]

    def sensor_ports(self) -> list[tuple[int, str, PEBlock]]:
        """Controller input ports consumed by PE peripheral blocks:
        ``(port_index, kind, block)`` with kind in adc/qdec/gpio."""
        out: list[tuple[int, str, PEBlock]] = []
        inner = self.controller.inner
        for i in range(self.controller.n_in):
            inport = self.controller.inport(i)
            for c in inner.consumers_of(inport.name, 0):
                blk = inner.blocks[c.dst]
                if isinstance(blk, ADCBlock):
                    out.append((i, "adc", blk))
                elif isinstance(blk, QuadDecBlock):
                    out.append((i, "qdec", blk))
                elif isinstance(blk, BitIOBlock):
                    out.append((i, "gpio", blk))
        return out

    def actuation_ports(self) -> list[tuple[int, PEBlock]]:
        """Controller output ports driven by PE actuator blocks."""
        out: list[tuple[int, PEBlock]] = []
        inner = self.controller.inner
        for i in range(self.controller.n_out):
            outport = self.controller.outport(i)
            for c in inner.drivers_of(outport.name, 0):
                blk = inner.blocks[c.src]
                if isinstance(blk, (PWMBlock, BitIOBlock)):
                    out.append((i, blk))
        return out

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def deploy(self, mode: PEBlockMode = PEBlockMode.HW) -> MCUDevice:
        """Bind beans to a fresh MCU and install the ISR task set."""
        if self.device is not None:
            raise TargetError("application already deployed")
        if mode is PEBlockMode.MIL:
            raise TargetError("deploy() needs HW or PIL mode; MIL runs in the engine")
        self.mode = mode
        device = self.project.build_device(self.dispatch_mode)
        self.device = device
        for blk in self.pe_blocks():
            blk.set_mode(mode, self.pil_buffer if mode is PEBlockMode.PIL else None)
        executor = AtomicExecutor(self.cm, honor_rates=True)
        executor.start()
        self.executor = executor

        vexe = VirtualExecutable(self.model.name, self.artifacts)
        inner = self.controller.inner
        tick_fcs: list[str] = []
        event_tasks: list[tuple[str, str]] = []  # (vector, fc qname)
        for ev in inner.event_connections:
            src = inner.blocks[ev.src]
            dst_q = ev.dst  # qnames in cm equal top-level names of inner
            if not isinstance(src, PEBlock):
                continue
            if isinstance(src, TimerIntBlock):
                tick_fcs.append(dst_q)
            else:
                vector = src.bean.event_vector(src.EVENT_NAMES[ev.event_port])
                event_tasks.append((vector, dst_q))

        def step() -> None:
            t = device.time
            executor.call(t)
            for fc in tick_fcs:
                executor.call_block(fc, t)
            self.step_count += 1
            for callback in self.post_step_callbacks:
                callback()

        # rate-aware tick cost: a base-rate step pays only for the blocks
        # whose rate guard passes this tick (plus any timer-fired FC bodies)
        fc_cost = sum(self.artifacts.isr_costs.get(fc, 0.0) for fc in tick_fcs)
        overhead = (
            self.artifacts.step_cost_cycles - sum(self.artifacts.rate_costs.values())
        )
        rate_costs = dict(self.artifacts.rate_costs)

        def tick_cost() -> float:
            tick = executor.tick  # the step about to execute
            total = overhead + fc_cost
            for k, cost in rate_costs.items():
                if k == 1 or tick % k == 0:
                    total += cost
            return total

        tick_vector, period = self._tick_binding(device)
        vexe.add_task(
            ISRTask(tick_vector, priority=PRIORITY_TICK, cycles=tick_cost, action=step)
        )
        for vector, fc_q in event_tasks:
            vexe.add_task(
                ISRTask(
                    vector,
                    priority=PRIORITY_EVENT,
                    cycles=self.artifacts.isr_costs.get(fc_q, 200.0),
                    action=(lambda q=fc_q: executor.call_block(q, device.time)),
                )
            )
        vexe.load(device)
        vexe.on_start(lambda: self._enable_peripherals())
        self.vexe = vexe
        self._tick_period = period
        return device

    def _tick_binding(self, device: MCUDevice) -> tuple[str, float]:
        timers = self.timer_blocks()
        if timers:
            blk = timers[0]
            return blk.bean.event_vector("OnInterrupt"), blk.bean.achieved_period
        # no TimerInt block in the diagram: claim a free hardware timer
        free = [
            name for name in device.peripherals
            if name.startswith("timer")
            and name not in self.validation.allocation.values()
        ]
        if not free:
            raise TargetError("no free hardware timer for the base-rate tick")
        timer = device.peripheral(free[0])
        sol = timer.configure(self.dt)
        timer.irq_vector = "rt_tick"
        self._fallback_timer = timer
        return "rt_tick", sol.achieved

    def _enable_peripherals(self) -> None:
        for blk in self.pe_blocks():
            if isinstance(blk, TimerIntBlock):
                blk.bean.call("Enable")
            elif isinstance(blk, PWMBlock):
                blk.bean.call("Enable")
        if getattr(self, "_fallback_timer", None) is not None:
            self._fallback_timer.start()

    def start(self) -> None:
        """Boot: run the init code (enables the tick and the actuators)."""
        if self.vexe is None:
            raise TargetError("deploy() first")
        self.vexe.start()

    def run_for(self, duration: float) -> None:
        if self.device is None:
            raise TargetError("deploy() first")
        self.device.run_for(duration)

    def close(self) -> None:
        """Release a finished co-simulation run: close the device
        (:meth:`~repro.mcu.device.MCUDevice.close`), drop the ISR task
        set and the init hooks (closures over this application), the
        post-step callbacks (closures over the rig that added them), and
        detach the model/project sync.
        Reference counting then frees the deployment on its last
        reference.  The run's measurements stay readable
        (:meth:`profiler`, :meth:`memory_report`, ``step_count``); the
        application is single-use, and later edits to the model no
        longer reach :attr:`project`."""
        if self.device is not None:
            self.device.close()
        if self.vexe is not None:
            self.vexe.unload()
        self.post_step_callbacks.clear()
        self.sync.close()

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------
    @property
    def tick_vector(self) -> str:
        timers = self.timer_blocks()
        return timers[0].bean.event_vector("OnInterrupt") if timers else "rt_tick"

    @property
    def tick_period(self) -> float:
        return getattr(self, "_tick_period", self.dt)

    def profiler(self) -> Profiler:
        if self.device is None:
            raise TargetError("deploy() first")
        return Profiler(self.device)

    def memory_report(self) -> dict:
        rep = {
            "ram_bytes": self.artifacts.ram_bytes,
            "flash_bytes": self.artifacts.flash_bytes,
            "generated_loc": self.artifacts.loc,
        }
        if self.device is not None:
            rep["stack_bytes"] = self.device.cpu.max_stack_bytes
            rep["max_nesting"] = self.device.cpu.max_nesting
        return rep
