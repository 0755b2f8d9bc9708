"""Eager fork.

A fork copies each input token to every output branch.  The *eager* variant
lets fast branches take their copy immediately and remembers which branches
are already served (``done`` bits); the input token is consumed once every
branch is done.

Anti-token handling is per-branch: an anti-token arriving on branch ``k``
kills that branch's copy of the current token (if still pending) or the
branch's copy of a *future* token (pending-kill counter).  Anti-tokens are
absorbed here — they do not propagate past the fork, which keeps the
counterflow network small while preserving transfer equivalence.
"""

from __future__ import annotations

from repro.elastic.channel import CONTROL_SIGNALS
from repro.elastic.node import Node
from repro.elastic.spec import (
    FALSE,
    CombSpec,
    and_,
    data,
    ite,
    not_,
    or_,
    sig,
    state,
)
from repro.kleene import kand, kite, knot, kor


class EagerFork(Node):
    """Fork with eager per-branch completion and per-branch kill counters."""

    kind = "fork"

    def __init__(self, name, n_outputs=2, max_kills=4):
        super().__init__(name)
        if n_outputs < 1:
            raise ValueError(f"Fork {name}: needs at least one output")
        self.n_outputs = n_outputs
        self.max_kills = max_kills
        self.add_in("i")
        for k in range(n_outputs):
            self.add_out(f"o{k}")
        self.reset()

    def reset(self):
        self._done = [False] * self.n_outputs
        self._pk = [0] * self.n_outputs

    def snapshot(self):
        return (tuple(self._done), tuple(self._pk))

    def restore(self, state):
        done, pk = state
        self._done = list(done)
        self._pk = list(pk)

    # -- combinational -----------------------------------------------------------

    def comb(self):
        changed = False
        ist = self.st("i")
        branch_ok = []
        for k in range(self.n_outputs):
            port = f"o{k}"
            ost = self.st(port)
            # A branch whose copy is already served -- or doomed by a pending
            # kill -- offers nothing.
            eff_done = self._done[k] or self._pk[k] > 0
            vp_k = kand(ist.vp, not eff_done)
            changed |= self.drive(port, "vp", vp_k)
            if ist.vp is True and ist.data is not None:
                changed |= self.drive(port, "data", ist.data)
            # Accept anti-tokens: cancel with the offered copy when valid,
            # else absorb into the branch counter while there is room.
            changed |= self.drive(port, "sm", kite(vp_k, False, self._pk[k] >= self.max_kills))
            # Branch complete this cycle: already done, doomed, or transferring.
            branch_ok.append(kor(eff_done, kand(vp_k, knot(ost.sp))))
        all_ok = kand(*branch_ok)
        changed |= self.drive("i", "sp", knot(kand(ist.vp, all_ok)))
        changed |= self.drive("i", "vm", False)
        return changed

    def comb_spec(self):
        ivp = sig("i", "vp")
        states = {}
        signals = {}
        payload = {}
        branch_ok = []
        for k in range(self.n_outputs):
            port = f"o{k}"
            states[f"done{k}"] = f"self._done[{k}] or self._pk[{k}] > 0"
            states[f"kill_full{k}"] = f"self._pk[{k}] >= self.max_kills"
            eff_done = state(f"done{k}")
            vp_k = and_(ivp, not_(eff_done))
            signals[(port, "vp")] = vp_k
            signals[(port, "sm")] = ite(vp_k, FALSE, state(f"kill_full{k}"))
            payload[port] = (ivp, data("i"))
            branch_ok.append(or_(eff_done, and_(vp_k, not_(sig(port, "sp")))))
        signals[("i", "sp")] = not_(and_(ivp, and_(*branch_ok)))
        signals[("i", "vm")] = FALSE
        return CombSpec(signals, state=states, data=payload)

    # -- sequential ----------------------------------------------------------------

    def tick(self):
        ist = self.st("i")
        token_present = bool(ist.vp)
        newly_done = [False] * self.n_outputs
        for k in range(self.n_outputs):
            port = f"o{k}"
            ost = self.st(port)
            # Pending kill consumes this token's copy on branch k.
            if token_present and self._pk[k] > 0 and not self._done[k]:
                self._done[k] = True
                self._pk[k] -= 1
            if ost.vp and not ost.sp:
                newly_done[k] = True
            # Absorb a fresh anti-token targeting a future copy.
            if ost.vm and not ost.sm and not ost.vp:
                self._pk[k] += 1
        for k in range(self.n_outputs):
            self._done[k] = self._done[k] or newly_done[k]
        if token_present and all(self._done):
            self._done = [False] * self.n_outputs

    @staticmethod
    def emit_tick(g, ni, node, out):
        n = g.node_ref(ni)
        k_out = node.n_outputs
        out += [
            f"_tk = {g.sig(node, 'i', 'vp')}",
            f"_pk = {n}._pk",
            f"_dn = {n}._done",
        ]
        for k in range(k_out):
            p = f"o{k}"
            vp, sp, vm, sm = (g.sig(node, p, s) for s in CONTROL_SIGNALS)
            out += [
                f"if _tk and _pk[{k}] > 0 and not _dn[{k}]:",
                f"    _dn[{k}] = True",
                f"    _pk[{k}] -= 1",
                f"_b{k} = {vp} and not {sp}",
                f"if {vm} and not {sm} and not {vp}:",
                f"    _pk[{k}] += 1",
            ]
        for k in range(k_out):
            out += [f"if _b{k}:", f"    _dn[{k}] = True"]
        all_done = " and ".join(f"_dn[{k}]" for k in range(k_out))
        out.append(f"if _tk and {all_done}:")
        for k in range(k_out):
            out.append(f"    _dn[{k}] = False")

    # -- performance ------------------------------------------------------------------

    def area(self, tech):
        return tech.fork_ctrl_area(self.n_outputs)

    def timing_arcs(self, tech):
        return [("i", f"o{k}", 0.0, "data") for k in range(self.n_outputs)]
