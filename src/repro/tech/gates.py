"""Structural gate-level IR.

Datapath blocks (adders, SECDED logic, ALUs) are built as
:class:`GateNetlist` objects: named nets driven by primitive gates.  The IR
supports functional evaluation (for bit-exact testing against the
behavioural models), longest-path delay and total area against a
:class:`~repro.tech.library.TechLibrary`, and BLIF export via
:mod:`repro.backend.blif` — the "blif model for logic synthesis with SIS"
of the Section 5 toolkit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetlistError
from repro.graphalg import toposort

_EVAL = {
    "inv": lambda a: not a,
    "buf": lambda a: a,
    "and2": lambda a, b: a and b,
    "or2": lambda a, b: a or b,
    "nand2": lambda a, b: not (a and b),
    "nor2": lambda a, b: not (a or b),
    "xor2": lambda a, b: a != b,
    "xnor2": lambda a, b: a == b,
    "mux2": lambda s, a, b: b if s else a,    # s=0 -> a, s=1 -> b
    "aoi21": lambda a, b, c: not ((a and b) or c),
    "const0": lambda: False,
    "const1": lambda: True,
}

#: cells that have zero library cost (constants are wiring artifacts).
_FREE = {"const0", "const1"}


@dataclass(frozen=True)
class Gate:
    """One gate instance: ``output net <- kind(input nets...)``."""

    kind: str
    output: str
    inputs: tuple

    def __post_init__(self):
        if self.kind not in _EVAL:
            raise NetlistError(f"unknown gate kind {self.kind!r}")


class GateNetlist:
    """A combinational gate network with named input/output nets."""

    def __init__(self, name):
        self.name = name
        self.inputs = []
        self.outputs = []
        self.gates = []
        self._drivers = {}
        self._fresh = 0

    # -- construction ------------------------------------------------------------

    def add_input(self, net):
        if net in self._drivers or net in self.inputs:
            raise NetlistError(f"net {net!r} already exists")
        self.inputs.append(net)
        return net

    def add_inputs(self, prefix, n):
        return [self.add_input(f"{prefix}{i}") for i in range(n)]

    def mark_output(self, net):
        self.outputs.append(net)
        return net

    def new_net(self, hint="n"):
        self._fresh += 1
        return f"_{hint}{self._fresh}"

    def add_gate(self, kind, inputs, output=None):
        output = output or self.new_net(kind)
        if output in self._drivers or output in self.inputs:
            raise NetlistError(f"net {output!r} already driven")
        gate = Gate(kind, output, tuple(inputs))
        self.gates.append(gate)
        self._drivers[output] = gate
        return output

    # convenience builders
    def inv(self, a, out=None):
        return self.add_gate("inv", (a,), out)

    def and2(self, a, b, out=None):
        return self.add_gate("and2", (a, b), out)

    def or2(self, a, b, out=None):
        return self.add_gate("or2", (a, b), out)

    def xor2(self, a, b, out=None):
        return self.add_gate("xor2", (a, b), out)

    def nand2(self, a, b, out=None):
        return self.add_gate("nand2", (a, b), out)

    def nor2(self, a, b, out=None):
        return self.add_gate("nor2", (a, b), out)

    def mux2(self, s, a, b, out=None):
        return self.add_gate("mux2", (s, a, b), out)

    def const(self, value, out=None):
        return self.add_gate("const1" if value else "const0", (), out)

    def xor_tree(self, nets, out=None):
        """Balanced XOR reduction (parity)."""
        nets = list(nets)
        if not nets:
            return self.const(False, out)
        while len(nets) > 1:
            nxt = []
            for i in range(0, len(nets) - 1, 2):
                nxt.append(self.xor2(nets[i], nets[i + 1]))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        if out is not None:
            return self.add_gate("buf", (nets[0],), out)
        return nets[0]

    def or_tree(self, nets, out=None):
        nets = list(nets)
        if not nets:
            return self.const(False, out)
        while len(nets) > 1:
            nxt = []
            for i in range(0, len(nets) - 1, 2):
                nxt.append(self.or2(nets[i], nets[i + 1]))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        if out is not None:
            return self.add_gate("buf", (nets[0],), out)
        return nets[0]

    def and_tree(self, nets, out=None):
        nets = list(nets)
        if not nets:
            return self.const(True, out)
        while len(nets) > 1:
            nxt = []
            for i in range(0, len(nets) - 1, 2):
                nxt.append(self.and2(nets[i], nets[i + 1]))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        if out is not None:
            return self.add_gate("buf", (nets[0],), out)
        return nets[0]

    # -- analysis -------------------------------------------------------------------

    def topo_gates(self):
        """Gates in topological order (raises on combinational cycles)."""
        drivers = self._drivers
        fanout = {net: [] for net in drivers}
        for net, gate in drivers.items():
            for src in gate.inputs:
                if src in fanout:
                    fanout[src].append(net)
        order, cycle = toposort(drivers, fanout)
        if cycle is not None:
            raise NetlistError(f"combinational cycle through net {cycle[0]!r}")
        return [drivers[net] for net in order]

    def evaluate(self, input_values):
        """Evaluate outputs for a dict of input net -> bool."""
        values = dict(input_values)
        for net in self.inputs:
            if net not in values:
                raise NetlistError(f"missing value for input {net!r}")
        for gate in self.topo_gates():
            args = [values[src] for src in gate.inputs]
            values[gate.output] = bool(_EVAL[gate.kind](*args))
        return {net: values[net] for net in self.outputs}

    def area(self, tech):
        return sum(
            tech.area_of(gate.kind) for gate in self.gates if gate.kind not in _FREE
        )

    def delay(self, tech):
        """Worst arrival time over all gates (constants arrive at 0)."""
        arrival = {net: 0.0 for net in self.inputs}
        worst = 0.0
        for gate in self.topo_gates():
            if gate.kind in _FREE:
                arrival[gate.output] = 0.0
                continue
            start = max((arrival[src] for src in gate.inputs), default=0.0)
            arrival[gate.output] = start + tech.delay_of(gate.kind)
            worst = max(worst, arrival[gate.output])
        return worst

    def stats(self, tech):
        return {
            "gates": len([g for g in self.gates if g.kind not in _FREE]),
            "area": self.area(tech),
            "delay": self.delay(tech),
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
        }


def ints_to_bits(value, width):
    """Little-endian bit list of an integer."""
    return [bool((value >> i) & 1) for i in range(width)]


def bits_to_int(bits):
    """Integer from a little-endian bool list."""
    return sum(1 << i for i, bit in enumerate(bits) if bit)
