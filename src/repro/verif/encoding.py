"""Canonical compact byte-encoding of explorer states.

The explicit-state explorer's dedup index maps every visited state —
``(Netlist.snapshot(), previous channel signals)`` — to its discovery
index.  Keyed by the raw nested tuples that :meth:`Netlist.snapshot`
returns plus per-channel boolean tuples, the index both hashes slowly
(every lookup re-hashes the whole nested structure) and keeps the full
tuple graph resident per state, which dominates the checker's memory at
20k+ states.

Three layers make the states cheap:

* **Packed signals** — the four control bits of every channel pack into
  **one byte per channel** (``VP | SP<<1 | VM<<2 | SM<<3``), in the
  netlist's fixed channel order.  This is the representation carried in
  ``ExplorationResult.states`` and consumed by the packed property checks
  of :mod:`repro.verif.properties`; :func:`unpack_signals` recovers the
  friendly ``{channel: (vp, sp, vm, sm)}`` view on demand.
* **Snapshot codes** — :meth:`StateCodec.snapshot_code` serializes a
  :meth:`Netlist.snapshot` capture through :func:`marshal.dumps` at
  version 2: a value-deterministic, C-speed encoding for the tuple/int/
  bool/str/float/bytes/``None`` values the :meth:`Node.snapshot` contract
  asks for (version 2 predates marshal's identity-based object sharing,
  so equal values always produce equal bytes regardless of aliasing).
  The explorer keys its successor memo by this code: one step is a
  deterministic function of (snapshot, choice vector), so states that
  differ only in their previous signals share one expansion.
* **State keys** — :meth:`StateCodec.state_key` composes a snapshot code
  with the state's packed signals: a one-byte tag (initial state /
  produced by a cycle), the fixed-width signal bytes, then the snapshot
  code.  The composition is unambiguous within one netlist, so the code
  computed when a successor is indexed is reused, unchanged, as that
  state's memo key when it is expanded.  :meth:`StateCodec.encode` does
  both steps at once.

The resulting keys are *hash-consed* by the index dict itself: the one
interned ``bytes`` object is all that stays resident per state key, and
every re-visit hashes a flat byte string instead of walking tuples.

Keys are only comparable within one exploration of one netlist — the
codec deliberately strips the static channel names (the snapshot's node
names ride along; dropping them with a Python-level pass would cost more
than marshal's C writer spends on them).

A snapshot containing a value marshal cannot serialize (an arbitrary
Python object as a data token, say) is its own snapshot code, and its
state key is the classic ``(snapshot, packed_signals)`` tuple;
:meth:`StateCodec.encode` returns ``None`` for it.  Since a given value
always encodes the same way, mixing encoded and fallback keys in one
index is safe — the two kinds never compare equal.
"""

from __future__ import annotations

import marshal

#: marshal format predating FLAG_REF object sharing (version >= 3 encodes
#: *aliased* equal objects differently from distinct equal objects, which
#: would split equal states); version 2 is purely value-determined for the
#: types the snapshot contract allows.
_MARSHAL_VERSION = 2


def pack_signals(signals, channel_names):
    """Pack a ``{channel: (vp, sp, vm, sm)}`` mapping into one byte per
    channel, in ``channel_names`` order."""
    packed = bytearray(len(channel_names))
    for i, name in enumerate(channel_names):
        vp, sp, vm, sm = signals[name]
        packed[i] = (1 if vp else 0) | (2 if sp else 0) \
            | (4 if vm else 0) | (8 if sm else 0)
    return bytes(packed)


def unpack_signals(packed, channel_names):
    """Inverse of :func:`pack_signals`: the friendly dict view."""
    return {
        name: (
            bool(packed[i] & 1), bool(packed[i] & 2),
            bool(packed[i] & 4), bool(packed[i] & 8),
        )
        for i, name in enumerate(channel_names)
    }


class StateCodec:
    """Encodes explorer states of one netlist into compact ``bytes`` keys."""

    __slots__ = ("channel_names",)

    def __init__(self, netlist):
        self.channel_names = list(netlist.channels)

    @staticmethod
    def snapshot_code(snapshot):
        """The canonical ``bytes`` code of a :meth:`Netlist.snapshot`
        capture, or ``snapshot`` itself when one of its values is not
        marshal-serializable."""
        try:
            return marshal.dumps(snapshot, _MARSHAL_VERSION)
        except ValueError:
            return snapshot

    @staticmethod
    def state_key(code, packed_signals):
        """The dedup-index key of the state ``(snapshot, packed_signals)``
        given the snapshot's :meth:`snapshot_code`; ``packed_signals`` is
        the :func:`pack_signals` byte vector of the cycle that produced the
        state (``None`` for the initial state)."""
        if type(code) is not bytes:
            return (code, packed_signals)
        if packed_signals is None:
            return b"\x00" + code
        return b"\x01" + packed_signals + code

    def encode(self, snapshot, packed_signals):
        """The canonical ``bytes`` key of a state, or ``None`` when a
        snapshot value is not marshal-serializable (the caller falls back
        to tuple keys)."""
        key = self.state_key(self.snapshot_code(snapshot), packed_signals)
        return key if type(key) is bytes else None
