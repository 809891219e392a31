"""Single-pin digital I/O bean (PE type "BitIO").

The case study's keyboard buttons enter through BitIO beans; the expert
system's pin-budget check catches two beans claiming one pin.
"""

from __future__ import annotations

from typing import Any, Optional

from ..bean import Bean, BeanEvent, BeanMethod
from ..expert import Finding
from ..properties import EnumProperty, IntProperty


class BitIOBean(Bean):
    """One GPIO pin, input or output.

    ``pin`` is a package-global pin index; the bean resolves it to
    ``gpio{pin // width}`` pin ``pin % width`` at bind time.  Edge
    interrupts share the *port's* single vector — a real constraint the
    expert system warns about when two beans arm edges on one port.
    """

    TYPE = "BitIO"
    RESOURCE = None  # allocates a pin, not a whole port
    PROPERTIES = (
        IntProperty("pin", default=0, minimum=0,
                    hint="package-global pin index"),
        EnumProperty("direction", ["input", "output"], default="input"),
        IntProperty("init_value", default=0, minimum=0, maximum=1,
                    hint="output latch after init"),
        EnumProperty("edge_irq", ["none", "rising", "falling", "both"],
                     default="none", hint="input edge interrupt"),
    )
    METHODS = (
        BeanMethod("GetVal", c_return="bool", ops={"call": 1, "load_store": 1}),
        BeanMethod("PutVal", c_args="bool Val", ops={"call": 1, "load_store": 1}),
        BeanMethod("NegVal", ops={"call": 1, "load_store": 2}),
    )
    EVENTS = (
        BeanEvent("OnEdge", "input edge interrupt (port-shared vector)"),
    )

    # ------------------------------------------------------------------
    def _port_geometry(self, chip) -> Optional[tuple[int, int]]:
        spec = chip.peripheral_spec("gpio")
        if spec is None or spec.count == 0:
            return None
        return spec.count, spec.params.get("width", 8)

    def check(self, chip, clock, expert) -> list[Finding]:
        findings: list[Finding] = []
        geom = self._port_geometry(chip)
        if geom is None:
            return [Finding("error", self.name, f"{chip.name} has no GPIO")]
        n_ports, width = geom
        pin = self.get_property("pin")
        if pin >= n_ports * width:
            findings.append(
                Finding("error", self.name,
                        f"pin {pin} exceeds the {n_ports * width} GPIO pins "
                        f"of {chip.name}")
            )
        if (
            self.get_property("edge_irq") != "none"
            and self.get_property("direction") != "input"
        ):
            findings.append(
                Finding("error", self.name, "edge interrupt requires an input pin")
            )
        return findings

    # ------------------------------------------------------------------
    def bind(self, device, resource_name) -> None:
        spec = device.chip.peripheral_spec("gpio")
        width = spec.params.get("width", 8)
        pin = self.get_property("pin")
        port = device.gpio(pin // width)
        local = pin % width
        self._port, self._local = port, local
        super().bind(device, resource_name)
        port.set_direction(local, "out" if self.get_property("direction") == "output" else "in")
        if self.get_property("direction") == "output":
            port.write(local, self.get_property("init_value"))
        edge = self.get_property("edge_irq")
        if edge != "none":
            port.enable_edge_irq(local, edge)
            port.irq_vector = self.event_vector("OnEdge")

    def _build_impl(self, device) -> dict[str, Any]:
        # the pin, not the bean: a method closing over the bean that holds
        # it would be a reference cycle
        port, local = self._port, self._local

        def get_val() -> int:
            return port.read(local)

        def put_val(v: int) -> None:
            port.write(local, v)

        def neg_val() -> None:
            put_val(1 - get_val())

        return {"GetVal": get_val, "PutVal": put_val, "NegVal": neg_val}

    # simulation-side helper: the external world toggles the pin ---------
    def drive(self, level: int) -> None:
        """Drive the (input) pin from outside — a button press."""
        if not self.bound:
            raise RuntimeError(f"bean '{self.name}' not bound")
        self._port.drive_input(self._local, level)
