"""Plant-side model extraction for PIL/HIL.

"The PEERT_PIL then substitute[s] the controller subsystem by a
communication block providing a code that composes outcoming communication
packets from the signals from the plant subsystem and parses incoming
packets to the signals for the plant subsystem." (section 6)

:func:`split_plant_model` performs that substitution *without touching
the original model* (the single-model property): it builds a new diagram
that shares every block except the controller subsystem, which is
replaced by a :class:`ControllerProxy` of identical port shape.
"""

from __future__ import annotations

import numpy as np

from repro.codegen.registry_hooks import register_native_lazy
from repro.model.block import Block
from repro.model.graph import Model
from repro.model.library import Subsystem


class ControllerProxy(Block):
    """Stands in for the controller subsystem on the plant side.

    Outputs hold the last actuation the harness applied; the harness reads
    the proxy's *input* signals (the sensor values the plant produces)
    through :meth:`Simulator.read_input`.

    ``held`` is the only store of that actuation on every substrate: the
    Python passes read it in :meth:`outputs`, and a native plant's context
    borrows the same array, so :meth:`set_output` never needs to know
    which executor runs the plant.
    """

    direct_feedthrough = False

    def __init__(self, name: str, n_in: int, n_out: int):
        super().__init__(name)
        self.n_in = n_in
        self.n_out = n_out
        self.held = np.zeros(n_out)

    def set_output(self, port: int, value: float) -> None:
        """Harness applies a received actuation word."""
        if not (0 <= port < self.n_out):
            raise ValueError(f"proxy has no output port {port}")
        self.held[port] = value

    def outputs(self, t, u, ctx):
        return self.held.tolist()


def _register_native() -> None:
    from repro.codegen.templates import default_registry
    from repro.native.templates import HeldOutputs

    default_registry().register_native(ControllerProxy, HeldOutputs())


register_native_lazy(_register_native)


def split_plant_model(model: Model, controller_name: str) -> tuple[Model, ControllerProxy]:
    """Clone the diagram with the controller replaced by a proxy.

    Blocks other than the controller are *shared* (not copied) — they are
    stateless between runs (state lives in per-run contexts), so reuse is
    safe as long as the original and the split model do not simulate
    concurrently.
    """
    ctrl = model.block(controller_name)
    if not isinstance(ctrl, Subsystem):
        raise ValueError(f"'{controller_name}' is not a subsystem")
    plant_model = Model(f"{model.name}_plantside")
    proxy = ControllerProxy(controller_name, n_in=ctrl.n_in, n_out=ctrl.n_out)
    for name, block in model.blocks.items():
        if name == controller_name:
            plant_model.add(proxy)
        else:
            plant_model.add(block)
    for c in model.connections:
        plant_model.connections.append(c)  # names unchanged, proxy matches
    for e in model.event_connections:
        if e.src != controller_name and e.dst != controller_name:
            plant_model.event_connections.append(e)
    return plant_model, proxy
