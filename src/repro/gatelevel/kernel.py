"""Compiled bit-parallel fault-simulation kernel.

The reference interpreter (:mod:`repro.gatelevel.simulate`) re-walks a
name-keyed gate dict per gate, per fault, per cycle.  This module
compiles a :class:`~repro.gatelevel.gates.Netlist` **once** into a flat
integer-indexed program and evaluates it over numpy ``uint64`` words:

* **Levelized instruction stream** — gates are indexed in topological
  order and grouped by ``(level, opcode)``; one numpy call evaluates
  every same-kind gate of a level (``V[dst] = V[a] & V[b]``), so the
  per-gate Python overhead of the interpreter disappears.
* **Wide words** — net values are ``(n_words,)`` vectors of ``uint64``,
  simulating ``width = 64 * n_words`` packed patterns per pass instead
  of capping at 64.
* **Cone-restricted faulty evaluation** — for each fault site the
  kernel precomputes the transitive fanout closure (through DFFs, so
  multi-cycle propagation stays sound).  The faulty machine re-evaluates
  only the gates in that closure and splices good-machine values
  everywhere else; a scratch/restore discipline keeps the per-fault cost
  proportional to the cone, not the netlist.
* **Fault-batched blocks** — fault simulation packs ``FAULT_BATCH``
  faulty machines side by side along the word axis (fault *b* owns
  columns ``b*n_words:(b+1)*n_words``) and evaluates the *union* of
  their cones in one pass, re-forcing each site inside its own block
  when its level completes.  Blocks are column-disjoint, and a row
  outside fault *b*'s cone recomputes to good-machine values in block
  *b* (its inputs are good there), so per-block detection against the
  union's observation rows is exact.  This amortises the per-call numpy
  overhead that would otherwise dominate on per-fault-sized arrays.

Results are bit-identical to the interpreter (property-tested in
``tests/test_kernel_equivalence.py``): stuck-at forcing applies after a
net evaluates, scan flip-flops observe each cycle and reload from the
good machine, and a fault on a scan FF keeps corrupting its own state.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from typing import Mapping, Sequence
from weakref import WeakKeyDictionary

import numpy as _np

from repro.gatelevel.faults import Fault
from repro.gatelevel.gates import COMBINATIONAL_KINDS, Netlist, NetlistError


# Opcodes.  Sources first, then unary, then the binary/ternary ops.
OP_INPUT, OP_CONST0, OP_CONST1, OP_DFF = 0, 1, 2, 3
OP_BUF, OP_NOT = 4, 5
OP_AND, OP_OR, OP_NAND, OP_NOR, OP_XOR, OP_XNOR, OP_MUX = 6, 7, 8, 9, 10, 11, 12

_OPCODE = {
    "input": OP_INPUT, "const0": OP_CONST0, "const1": OP_CONST1,
    "dff": OP_DFF, "buf": OP_BUF, "not": OP_NOT, "and": OP_AND,
    "or": OP_OR, "nand": OP_NAND, "nor": OP_NOR, "xor": OP_XOR,
    "xnor": OP_XNOR, "mux": OP_MUX,
}
_MASKED_OPS = frozenset({OP_NOT, OP_NAND, OP_NOR, OP_XNOR})


def _n_words(width: int) -> int:
    return (width + 63) // 64


#: faulty machines evaluated side by side per batched pass
FAULT_BATCH = 32

#: packed columns per fault-parallel *sequential* pass (column 0 is the
#: golden machine, so each pass carries ``SEQ_FAULT_COLUMNS - 1`` faults)
SEQ_FAULT_COLUMNS = 256


class _FaultBatch:
    """Up to :data:`FAULT_BATCH` faulty machines sharing one pass.

    Fault *b* owns word columns ``b*nw:(b+1)*nw``; ``levels`` is the
    union-of-cones program grouped by level, each with the site
    re-forcings to apply in their blocks once that level completes.
    """

    __slots__ = ("faults", "sites", "forced", "site_dff", "keep",
                 "levels", "obs_out", "obs_scan", "state", "alive",
                 "size")

    def __init__(self, faults, sites, forced, site_dff, keep, levels,
                 obs_out, obs_scan, state) -> None:
        self.faults = faults
        self.sites = sites
        self.forced = forced          # per fault: word vector to force
        self.site_dff = site_dff      # per fault: DFF pos of site, or None
        self.keep = keep              # per fault: scan rows reloading good
        self.levels = levels          # [(instructions, site fixes)]
        self.obs_out = obs_out        # union observation: output rows
        self.obs_scan = obs_scan      # union observation: scan DFF pos
        self.state = state            # (n_dffs, size*nw) faulty states
        self.alive = [True] * len(faults)
        self.size = len(faults)


class _Cone:
    """Per-fault-site restricted program: the site's fanout closure."""

    __slots__ = ("site", "program", "touched", "obs_out", "obs_scan",
                 "site_dff_pos")

    def __init__(self, site: int, program: list, touched, obs_out,
                 obs_scan, site_dff_pos: int | None) -> None:
        self.site = site
        self.program = program        # [(op, dst, a, b, c)] in level order
        self.touched = touched        # comb gate rows the faulty eval writes
        self.obs_out = obs_out        # output rows that can differ
        self.obs_scan = obs_scan      # scan-DFF state rows that can differ
        self.site_dff_pos = site_dff_pos


class CompiledNetlist:
    """A :class:`Netlist` levelized into a flat numpy program."""

    def __init__(self, netlist: Netlist) -> None:
        # Fail on malformed structure here, with a NetlistError naming
        # the offending net, rather than as a numpy shape error three
        # layers down in the levelized program.
        netlist.validate()
        self.netlist = netlist
        order = netlist.topo_order()
        levels = netlist.levels()
        self.names: list[str] = list(order)
        self.index: dict[str, int] = {n: i for i, n in enumerate(order)}
        n = len(order)
        self.n_gates = n

        opcode = _np.zeros(n, dtype=_np.uint8)
        fanin = _np.zeros((n, 3), dtype=_np.int64)
        level = _np.zeros(n, dtype=_np.int64)
        input_rows: list[int] = []
        const0_rows: list[int] = []
        const1_rows: list[int] = []
        dff_rows: list[int] = []
        dff_d_rows: list[int] = []
        scan_flags: list[bool] = []
        for i, name in enumerate(order):
            g = netlist.gate(name)
            op = _OPCODE[g.kind]
            opcode[i] = op
            level[i] = levels[name]
            for j, src in enumerate(g.inputs):
                fanin[i, j] = self.index[src]
            if op == OP_INPUT:
                input_rows.append(i)
            elif op == OP_CONST0:
                const0_rows.append(i)
            elif op == OP_CONST1:
                const1_rows.append(i)
            elif op == OP_DFF:
                dff_rows.append(i)
                dff_d_rows.append(self.index[g.inputs[0]])
                scan_flags.append(g.scan)
        self.opcode = opcode
        self.fanin = fanin
        self.level = level
        self.input_rows = _np.array(input_rows, dtype=_np.int64)
        self.input_names = [order[i] for i in input_rows]
        self.const0_rows = _np.array(const0_rows, dtype=_np.int64)
        self.const1_rows = _np.array(const1_rows, dtype=_np.int64)
        self.dff_rows = _np.array(dff_rows, dtype=_np.int64)
        self.dff_names = [order[i] for i in dff_rows]
        self.dff_d_rows = _np.array(dff_d_rows, dtype=_np.int64)
        self.dff_pos = {row: pos for pos, row in enumerate(dff_rows)}
        self.scan_pos = _np.array(
            [pos for pos, s in enumerate(scan_flags) if s],
            dtype=_np.int64,
        )
        self.output_rows = _np.array(
            [self.index[o] for o in netlist.outputs], dtype=_np.int64
        )

        # The levelized instruction stream: gates grouped by
        # (level, opcode), indices ascending within a group.
        groups: dict[tuple[int, int], list[int]] = {}
        for i in range(n):
            op = int(opcode[i])
            if op >= OP_BUF:
                groups.setdefault((int(level[i]), op), []).append(i)
        self.program: list[tuple] = []
        for (lvl, op), rows in sorted(groups.items()):
            dst = _np.array(rows, dtype=_np.int64)
            a = fanin[dst, 0]
            b = fanin[dst, 1] if op >= OP_AND else None
            c = fanin[dst, 2] if op == OP_MUX else None
            self.program.append((op, dst, a, b, c))

        # Fanout adjacency (a DFF "consumes" its D input, which folds
        # the cross-cycle edge D -> state into the closure).
        consumers: list[list[int]] = [[] for _ in range(n)]
        for i, name in enumerate(order):
            g = netlist.gate(name)
            for src in g.inputs:
                consumers[self.index[src]].append(i)
        self._consumers = consumers
        self._cones: dict[int, _Cone] = {}
        self._level_program_cache: list[tuple[int, list]] | None = None

    # ------------------------------------------------------------------
    # word packing

    def words_from_int(self, value: int, width: int):
        """Packed Python int -> little-endian ``uint64`` word vector."""
        nw = _n_words(width)
        value &= (1 << width) - 1
        return _np.frombuffer(
            value.to_bytes(nw * 8, "little"), dtype="<u8"
        ).astype(_np.uint64)

    @staticmethod
    def int_from_words(words) -> int:
        """Inverse of :meth:`words_from_int`."""
        return int.from_bytes(words.astype("<u8").tobytes(), "little")

    def _mask_words(self, width: int):
        nw = _n_words(width)
        mask = _np.full(nw, _np.uint64(0xFFFFFFFFFFFFFFFF))
        top = width - 64 * (nw - 1)
        if top < 64:
            mask[-1] = _np.uint64((1 << top) - 1)
        return mask

    def _pi_matrix(self, pi_values: Mapping[str, int], width: int):
        m = _np.zeros((len(self.input_names), _n_words(width)),
                      dtype=_np.uint64)
        for k, name in enumerate(self.input_names):
            v = pi_values.get(name, 0)
            if v:
                m[k] = self.words_from_int(v, width)
        return m

    def pack_pi_sequence(self, pi_sequence, width: int):
        """``pi_sequence`` packed as one ``(cycles, inputs, n_words)``
        ``uint64`` array -- the shard-dispatch payload format.  Row *c*
        is exactly ``self._pi_matrix(pi_sequence[c], width)``, so a
        simulation fed the packed form is bit-identical to one packing
        per cycle."""
        nw = _n_words(width)
        if not pi_sequence:
            return _np.zeros((0, len(self.input_names), nw),
                             dtype=_np.uint64)
        return _np.stack(
            [self._pi_matrix(piv, width) for piv in pi_sequence]
        )

    def _state_matrix(self, state: Mapping[str, int] | None, width: int):
        m = _np.zeros((len(self.dff_names), _n_words(width)),
                      dtype=_np.uint64)
        if state:
            for pos, name in enumerate(self.dff_names):
                v = state.get(name, 0)
                if v:
                    m[pos] = self.words_from_int(v, width)
        return m

    # ------------------------------------------------------------------
    # evaluation

    def _run_program(self, V, program, mask) -> None:
        for op, dst, a, b, c in program:
            if op == OP_BUF:
                V[dst] = V[a]
            elif op == OP_NOT:
                V[dst] = ~V[a] & mask
            elif op == OP_AND:
                V[dst] = V[a] & V[b]
            elif op == OP_OR:
                V[dst] = V[a] | V[b]
            elif op == OP_NAND:
                V[dst] = ~(V[a] & V[b]) & mask
            elif op == OP_NOR:
                V[dst] = ~(V[a] | V[b]) & mask
            elif op == OP_XOR:
                V[dst] = V[a] ^ V[b]
            elif op == OP_XNOR:
                V[dst] = ~(V[a] ^ V[b]) & mask
            else:  # OP_MUX: (s & a) | (~s & b); operands stay masked
                s = V[a]
                V[dst] = (s & V[b]) | (~s & V[c])

    def good_cycle(self, pi_words, state_words, width: int,
                   forced: Mapping[int, object] | None = None):
        """Full evaluation of one cycle; returns ``(V, next_state)``.

        ``forced`` maps gate row -> word vector, applied the moment the
        net's level completes (so downstream gates see forced values,
        matching the interpreter's in-order override).
        """
        mask = self._mask_words(width)
        V = _np.zeros((self.n_gates, _n_words(width)), dtype=_np.uint64)
        if len(self.input_rows):
            V[self.input_rows] = pi_words
        if len(self.const1_rows):
            V[self.const1_rows] = mask
        if len(self.dff_rows):
            V[self.dff_rows] = state_words
        by_level: dict[int, list[tuple[int, object]]] = {}
        if forced:
            for row, words in forced.items():
                by_level.setdefault(int(self.level[row]), []).append(
                    (row, words)
                )
            for row, words in by_level.get(0, ()):
                V[row] = words
        cur = 0
        for op, dst, a, b, c in self.program:
            lvl = int(self.level[dst[0]])
            while cur < lvl:
                cur += 1
                for row, words in by_level.get(cur, ()):
                    V[row] = words
            # A forced net at this level must not be overwritten by its
            # own gate evaluation: re-apply after the group runs.
            self._run_program(V, [(op, dst, a, b, c)], mask)
            for row, words in by_level.get(lvl, ()):
                V[row] = words
        nxt = V[self.dff_d_rows].copy() if len(self.dff_rows) else (
            _np.zeros((0, _n_words(width)), dtype=_np.uint64)
        )
        if forced:
            for row, words in forced.items():
                pos = self.dff_pos.get(row)
                if pos is not None:
                    nxt[pos] = words
        return V, nxt

    # ------------------------------------------------------------------
    # cone-restricted faulty evaluation

    def cone(self, site: int) -> _Cone:
        """The compiled fanout closure of gate row ``site`` (cached)."""
        c = self._cones.get(site)
        if c is not None:
            return c
        seen = {site}
        stack = [site]
        while stack:
            i = stack.pop()
            for k in self._consumers[i]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        program: list[tuple] = []
        touched: list[int] = []
        for op, dst, a, b, c_ in self.program:
            keep = [j for j, row in enumerate(dst)
                    if int(row) in seen and int(row) != site]
            if not keep:
                continue
            sel = _np.array(keep, dtype=_np.int64)
            program.append((
                op, dst[sel], a[sel],
                b[sel] if b is not None else None,
                c_[sel] if c_ is not None else None,
            ))
            touched.extend(int(r) for r in dst[sel])
        obs_out = _np.array(
            [r for r in self.output_rows if int(r) in seen],
            dtype=_np.int64,
        )
        obs_scan = _np.array(
            [pos for pos in self.scan_pos if int(self.dff_rows[pos]) in seen],
            dtype=_np.int64,
        )
        cone = _Cone(
            site, program,
            _np.array(sorted(set(touched)), dtype=_np.int64),
            obs_out, obs_scan, self.dff_pos.get(site),
        )
        self._cones[site] = cone
        return cone

    def _faulty_cycle(self, VS, cone: _Cone, state_words, forced_words,
                      mask):
        """Evaluate the faulty machine into scratch ``VS``.

        ``VS`` must hold the good-machine values on entry; only the
        cone's gates (plus DFF source rows and the site) are rewritten.
        Returns the faulty next-state matrix.  Call :meth:`_restore`
        before reusing ``VS`` as good values.
        """
        if len(self.dff_rows):
            VS[self.dff_rows] = state_words
        VS[cone.site] = forced_words
        self._run_program(VS, cone.program, mask)
        nxt = VS[self.dff_d_rows].copy() if len(self.dff_rows) else (
            _np.zeros((0, VS.shape[1]), dtype=_np.uint64)
        )
        if cone.site_dff_pos is not None:
            nxt[cone.site_dff_pos] = forced_words
        return nxt

    def _restore(self, VS, VG, cone: _Cone) -> None:
        if len(self.dff_rows):
            VS[self.dff_rows] = VG[self.dff_rows]
        if len(cone.touched):
            VS[cone.touched] = VG[cone.touched]
        VS[cone.site] = VG[cone.site]

    def diff_words(self, VS, VG, bnxt, gnxt, cone: _Cone):
        """Packed mask of patterns where the fault is observable."""
        nw = VS.shape[1]
        diff = _np.zeros(nw, dtype=_np.uint64)
        if len(cone.obs_out):
            diff |= _np.bitwise_or.reduce(
                VS[cone.obs_out] ^ VG[cone.obs_out], axis=0
            )
        if len(cone.obs_scan):
            diff |= _np.bitwise_or.reduce(
                bnxt[cone.obs_scan] ^ gnxt[cone.obs_scan], axis=0
            )
        return diff

    # ------------------------------------------------------------------
    # interpreter-compatible façades

    def simulate(
        self,
        pi_values: Mapping[str, int],
        state: Mapping[str, int] | None = None,
        width: int = 64,
        forced: Mapping[str, int] | None = None,
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Drop-in for :func:`repro.gatelevel.simulate.parallel_simulate`."""
        forced_rows = None
        if forced:
            forced_rows = {
                self.index[name]: self.words_from_int(v, width)
                for name, v in forced.items() if name in self.index
            }
        V, nxt = self.good_cycle(
            self._pi_matrix(pi_values, width),
            self._state_matrix(state, width),
            width, forced_rows,
        )
        values = {
            name: self.int_from_words(V[i])
            for i, name in enumerate(self.names)
        }
        next_state = {
            name: self.int_from_words(nxt[pos])
            for pos, name in enumerate(self.dff_names)
        }
        return values, next_state

    def state_checkpoints(
        self,
        pi_values: Mapping[str, int],
        checkpoints: Sequence[int],
        width: int = 1,
        forced: Mapping[str, int] | None = None,
        initial_state: Mapping[str, int] | None = None,
    ) -> dict[int, dict[str, int]]:
        """Free-run with constant inputs; snapshot DFF state at the
        given cycle counts (cycle 1 = state after one clock edge)."""
        forced_rows = None
        if forced:
            forced_rows = {
                self.index[name]: self.words_from_int(v, width)
                for name, v in forced.items() if name in self.index
            }
        pw = self._pi_matrix(pi_values, width)
        state = self._state_matrix(initial_state, width)
        marks = sorted(set(checkpoints))
        out: dict[int, dict[str, int]] = {}
        for cycle in range(1, marks[-1] + 1):
            _V, state = self.good_cycle(pw, state, width, forced_rows)
            if cycle in marks:
                out[cycle] = {
                    name: self.int_from_words(state[pos])
                    for pos, name in enumerate(self.dff_names)
                }
        return out

    # ------------------------------------------------------------------
    # fault-parallel sequential simulation

    def _level_program(self) -> list[tuple[int, list]]:
        """:attr:`program` regrouped as ``[(level, [instructions])]``.

        The fault-parallel sequential path re-forces fault columns once
        per level, so it wants level boundaries rather than the flat
        (level, opcode) stream.  Built once per compile.
        """
        cached = self._level_program_cache
        if cached is None:
            cached = []
            for instr in self.program:
                lvl = int(self.level[instr[1][0]])
                if not cached or cached[-1][0] != lvl:
                    cached.append((lvl, []))
                cached[-1][1].append(instr)
            self._level_program_cache = cached
        return cached

    def sequential_fault_detect(
        self,
        faults: Sequence[Fault],
        pi_values: Mapping[str, int],
        checkpoints: Sequence[int],
        observe: Sequence[str],
        forced: Mapping[str, int] | None = None,
        initial_state: Mapping[str, int] | None = None,
        columns: int | None = None,
    ) -> dict[Fault, int | None]:
        """Free-run every fault's full sequential machine **at once**.

        Packs up to ``columns - 1`` faults as bit columns of one wide
        state vector (column 0 is the golden machine; every column sees
        the same constant ``pi_values``), injects each fault by
        re-forcing its net's column whenever the net's level completes
        -- the same per-level re-forcing trick the combinational path
        uses -- and free-runs all cycles once.  At each checkpoint the
        ``observe`` flip-flops (signature-register bits) of every fault
        column are compared against column 0.

        Returns fault -> first detecting checkpoint cycle (``None`` if
        no checkpoint shows a difference), bit-identical to running the
        interpreter once per fault with ``forced={fault.net: stuck}``.
        A batch whose columns are all detected stops simulating early;
        larger fault lists are processed in successive batches.
        """
        marks = sorted({int(c) for c in checkpoints})
        result: dict[Fault, int | None] = {f: None for f in faults}
        known = [f for f in faults if f.net in self.index]
        pos: set[int] = set()
        for name in observe:
            row = self.index.get(name)
            if row is not None and row in self.dff_pos:
                pos.add(self.dff_pos[row])
        obs_pos = _np.array(sorted(pos), dtype=_np.int64)
        if not marks or not known or not len(obs_pos):
            return result
        per_batch = max(1, int(columns or SEQ_FAULT_COLUMNS) - 1)
        for start in range(0, len(known), per_batch):
            self._seq_fault_batch(
                known[start:start + per_batch], pi_values, marks,
                obs_pos, forced, initial_state, result,
            )
        return result

    def _seq_fault_batch(self, batch, pi_values, marks, obs_pos, forced,
                         initial_state, result) -> None:
        """One packed free-run: golden in column 0, fault *b* in column
        ``b + 1``; first-detection checkpoints land in ``result``."""
        nbits = len(batch) + 1
        nw = _n_words(nbits)
        all1 = _np.uint64(0xFFFFFFFFFFFFFFFF)
        ones = _np.full(nw, all1)
        zeros = _np.zeros(nw, dtype=_np.uint64)

        # Broadcast packing: every column runs the same session, so a
        # pin held at 1 is all-ones across the whole word vector.
        pw = _np.zeros((len(self.input_names), nw), dtype=_np.uint64)
        for k, name in enumerate(self.input_names):
            if pi_values.get(name, 0) & 1:
                pw[k] = ones
        state = _np.zeros((len(self.dff_names), nw), dtype=_np.uint64)
        if initial_state:
            for p, name in enumerate(self.dff_names):
                if initial_state.get(name, 0) & 1:
                    state[p] = ones

        # Session-level pin forcing (broadcast, golden included),
        # applied with good_cycle's level-completion semantics.
        forced_by_level: dict[int, list[tuple[int, object]]] = {}
        forced_state: list[tuple[int, object]] = []
        if forced:
            for name, v in forced.items():
                row = self.index.get(name)
                if row is None:
                    continue
                words = ones if v & 1 else zeros
                forced_by_level.setdefault(
                    int(self.level[row]), []
                ).append((row, words))
                p = self.dff_pos.get(row)
                if p is not None:
                    forced_state.append((p, words))

        # Per-site column fixes: fault b's column of its net is re-set
        # to the stuck value whenever the row is (re)written.  Multiple
        # faults on one net (s-a-0 and s-a-1) share a masked update.
        col_clear: dict[int, int] = {}
        col_set: dict[int, int] = {}
        for b, f in enumerate(batch):
            site = self.index[f.net]
            bit = 1 << (b + 1)
            col_clear[site] = col_clear.get(site, 0) | bit
            col_set[site] = col_set.get(site, 0) | (
                bit if f.stuck_at else 0
            )
        source_fixes: list[tuple] = []
        level_fixes: dict[int, list[tuple]] = {}
        state_fixes: list[tuple] = []
        width = 64 * nw
        for site, clear_bits in col_clear.items():
            keep = ~self.words_from_int(clear_bits, width)
            setw = self.words_from_int(col_set[site], width)
            fix = (site, keep, setw)
            if int(self.opcode[site]) >= OP_BUF:
                level_fixes.setdefault(
                    int(self.level[site]), []
                ).append(fix)
            else:
                source_fixes.append(fix)
            p = self.dff_pos.get(site)
            if p is not None:
                state_fixes.append((p, keep, setw))

        alive = (1 << nbits) - 2  # columns 1..len(batch)
        levels = self._level_program()
        V = _np.zeros((self.n_gates, nw), dtype=_np.uint64)
        mark_set = set(marks)
        for cycle in range(1, marks[-1] + 1):
            V[:] = 0
            if len(self.input_rows):
                V[self.input_rows] = pw
            if len(self.const1_rows):
                V[self.const1_rows] = ones
            if len(self.dff_rows):
                V[self.dff_rows] = state
            for row, words in forced_by_level.get(0, ()):
                V[row] = words
            for site, keep, setw in source_fixes:
                V[site] = (V[site] & keep) | setw
            for lvl, instrs in levels:
                self._run_program(V, instrs, ones)
                for row, words in forced_by_level.get(lvl, ()):
                    V[row] = words
                for site, keep, setw in level_fixes.get(lvl, ()):
                    V[site] = (V[site] & keep) | setw
            if len(self.dff_rows):
                nxt = V[self.dff_d_rows].copy()
                for p, words in forced_state:
                    nxt[p] = words
                for p, keep, setw in state_fixes:
                    nxt[p] = (nxt[p] & keep) | setw
                state = nxt
            self._pattern_cycles = getattr(
                self, "_pattern_cycles", 0
            ) + bin(alive).count("1")
            if cycle in mark_set:
                S = state[obs_pos]
                golden = (S[:, 0] & _np.uint64(1)).astype(bool)
                bcast = _np.where(golden, all1, _np.uint64(0))
                diff = _np.bitwise_or.reduce(
                    S ^ bcast[:, None], axis=0
                )
                hits = self.int_from_words(diff) & alive
                if hits:
                    for b, f in enumerate(batch):
                        if (hits >> (b + 1)) & 1:
                            result[f] = cycle
                    alive &= ~hits
                    if not alive:
                        break

    def detect_masks(
        self,
        faults: Sequence[Fault],
        pi_values: Mapping[str, int],
        state: Mapping[str, int] | None = None,
        width: int = 64,
    ) -> dict[Fault, int]:
        """Per-fault packed masks of detecting patterns, one capture cycle.

        The single-cycle analogue of :func:`transition_pair_detect`:
        the good machine evaluates once for the whole packed block and
        each fault replays only its cone.  Bit *p* of the returned mask
        is set when pattern *p* of the block detects the fault at an
        output or a scan flip-flop's captured state — exactly the
        condition the interpreter's ``_observable_difference`` checks.
        Used by the random-pattern pre-drop stage of
        :func:`repro.gatelevel.test_generation.generate_tests`.
        """
        mask = self._mask_words(width)
        pw = self._pi_matrix(pi_values, width)
        sw = self._state_matrix(state, width)
        VG, gnxt = self.good_cycle(pw, sw, width)
        VS = VG.copy()
        nw = _n_words(width)
        zero = _np.zeros(nw, dtype=_np.uint64)
        out: dict[Fault, int] = {}
        for f in faults:
            site = self.index.get(f.net)
            if site is None:
                out[f] = 0
                continue
            forced_words = zero if f.stuck_at == 0 else mask
            cone = self.cone(site)
            bnxt = self._faulty_cycle(VS, cone, sw, forced_words, mask)
            diff = self.diff_words(VS, VG, bnxt, gnxt, cone)
            self._restore(VS, VG, cone)
            out[f] = self.int_from_words(diff)
        return out

    # ------------------------------------------------------------------
    # fault simulation

    def _make_batch(self, faults: Sequence[Fault], width: int, init,
                    mask) -> _FaultBatch:
        """Compile one fault block batch: union-of-cones program plus
        per-fault forcing/observation bookkeeping."""
        nw = _n_words(width)
        sites = [self.index[f.net] for f in faults]
        forced = [
            _np.zeros(nw, dtype=_np.uint64) if f.stuck_at == 0
            else mask.copy()
            for f in faults
        ]
        seen = set(sites)
        stack = list(sites)
        while stack:
            i = stack.pop()
            for k in self._consumers[i]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        # Site re-forcings, keyed by the level whose evaluation would
        # overwrite them (source-row sites are never overwritten).
        fix_by_level: dict[int, list[tuple[int, int]]] = {}
        for blk, site in enumerate(sites):
            if int(self.opcode[site]) >= OP_BUF:
                fix_by_level.setdefault(int(self.level[site]), []).append(
                    (site, blk)
                )
        levels: list[tuple[list, tuple]] = []
        cur_lvl: int | None = None
        cur: list[tuple] = []
        for op, dst, a, b, c in self.program:
            kept = [j for j, row in enumerate(dst) if int(row) in seen]
            if not kept:
                continue
            lvl = int(self.level[dst[0]])
            if lvl != cur_lvl:
                if cur:
                    levels.append((cur, tuple(fix_by_level.get(cur_lvl, ()))))
                cur_lvl, cur = lvl, []
            if len(kept) == len(dst):
                cur.append((op, dst, a, b, c))
            else:
                sel = _np.array(kept, dtype=_np.int64)
                cur.append((
                    op, dst[sel], a[sel],
                    b[sel] if b is not None else None,
                    c[sel] if c is not None else None,
                ))
        if cur:
            levels.append((cur, tuple(fix_by_level.get(cur_lvl, ()))))
        obs_out = _np.array(
            [r for r in self.output_rows if int(r) in seen],
            dtype=_np.int64,
        )
        obs_scan = _np.array(
            [pos for pos in self.scan_pos
             if int(self.dff_rows[pos]) in seen],
            dtype=_np.int64,
        )
        site_dff = [self.dff_pos.get(site) for site in sites]
        keep = []
        for pos in site_dff:
            if len(self.scan_pos) and pos is not None:
                keep.append(self.scan_pos[self.scan_pos != pos])
            else:
                keep.append(self.scan_pos)
        state = _np.tile(init, (1, len(faults))) if len(self.dff_rows) \
            else _np.zeros((0, len(faults) * nw), dtype=_np.uint64)
        return _FaultBatch(list(faults), sites, forced, site_dff, keep,
                           levels, obs_out, obs_scan, state)

    def _batch_cycle(self, batch: _FaultBatch, VS, mask_b, VG, gnxt,
                     nw: int, width: int, cycle: int,
                     detected: dict) -> None:
        """One clock edge for every live fault block in ``batch``."""
        B = batch.size
        VS.reshape(self.n_gates, B, nw)[:] = VG[:, None, :]
        if len(self.dff_rows):
            VS[self.dff_rows] = batch.state
        for blk in range(B):
            if batch.alive[blk]:
                VS[batch.sites[blk],
                   blk * nw:(blk + 1) * nw] = batch.forced[blk]
        for instrs, fixes in batch.levels:
            self._run_program(VS, instrs, mask_b)
            for site, blk in fixes:
                if batch.alive[blk]:
                    VS[site, blk * nw:(blk + 1) * nw] = batch.forced[blk]
        if len(self.dff_rows):
            bnxt = VS[self.dff_d_rows].copy()
        else:
            bnxt = _np.zeros((0, B * nw), dtype=_np.uint64)
        for blk in range(B):
            if batch.alive[blk] and batch.site_dff[blk] is not None:
                bnxt[batch.site_dff[blk],
                     blk * nw:(blk + 1) * nw] = batch.forced[blk]
        good_out = VG[batch.obs_out] if len(batch.obs_out) else None
        good_scan = gnxt[batch.obs_scan] if len(batch.obs_scan) else None
        for blk, fault in enumerate(batch.faults):
            if not batch.alive[blk]:
                continue
            sl = slice(blk * nw, (blk + 1) * nw)
            self._pattern_cycles += width
            hit = (
                good_out is not None
                and not _np.array_equal(VS[batch.obs_out, sl], good_out)
            ) or (
                good_scan is not None
                and not _np.array_equal(bnxt[batch.obs_scan, sl],
                                        good_scan)
            )
            if hit:
                detected[fault] = cycle
                batch.alive[blk] = False
                continue
            # Scan reload: scanned state follows the good machine,
            # except a scan FF carrying the fault itself.
            if len(batch.keep[blk]):
                bnxt[batch.keep[blk], sl] = gnxt[batch.keep[blk]]
            batch.state[:, sl] = bnxt[:, sl]

    def fault_simulate_cycles(
        self,
        faults: Sequence[Fault],
        pi_sequence: Sequence[Mapping[str, int]] | None,
        width: int = 64,
        initial_state: Mapping[str, int] | None = None,
        drop_detected: bool = False,
        pi_words=None,
    ) -> dict[Fault, int | None]:
        """Array-native fault-batched PPSFP; bit-identical to the
        interpreter's :func:`repro.gatelevel.fault_sim.fault_simulate_cycles`.

        The kernel always retires a fault at its first detection, which
        is exactly what ``drop_detected`` asks for and also what the
        non-dropping interpreter computes per fault (it breaks at first
        detection) -- so the flag changes nothing here and is accepted
        for signature parity.

        ``pi_words`` optionally supplies the patterns pre-packed as a
        ``(cycles, inputs, n_words)`` array (see
        :meth:`pack_pi_sequence`); shard workers pass a zero-copy
        shared-memory view here, skipping per-worker re-packing.
        """
        mask = self._mask_words(width)
        nw = _n_words(width)
        known = [f for f in faults if f.net in self.index]
        detected: dict[Fault, int | None] = {f: None for f in faults}
        self._pattern_cycles = 0  # bookkeeping for patterns/sec metrics
        if pi_words is not None:
            pw_seq = list(pi_words)
        else:
            pw_seq = [self._pi_matrix(piv, width)
                      for piv in (pi_sequence or ())]
        if not known or not pw_seq:
            return detected
        init = self._state_matrix(initial_state, width)
        # Sorting by site keeps each batch's union-of-cones tight.
        by_site = sorted(
            known, key=lambda f: (self.index[f.net], f.stuck_at)
        )
        batches = [
            self._make_batch(by_site[i:i + FAULT_BATCH], width, init,
                             mask)
            for i in range(0, len(by_site), FAULT_BATCH)
        ]
        scratch: dict[int, tuple] = {}  # per batch size: (VS, mask_b)
        good_state = init
        for cycle, pw in enumerate(pw_seq):
            live = [b for b in batches if any(b.alive)]
            if not live:
                break
            VG, gnxt = self.good_cycle(pw, good_state, width)
            good_state = gnxt
            for batch in live:
                buf = scratch.get(batch.size)
                if buf is None:
                    buf = (
                        _np.zeros((self.n_gates, batch.size * nw),
                                  dtype=_np.uint64),
                        _np.tile(mask, batch.size),
                    )
                    scratch[batch.size] = buf
                self._batch_cycle(batch, buf[0], buf[1], VG, gnxt, nw,
                                  width, cycle, detected)
        return detected


# ---------------------------------------------------------------------------
# compile cache

_COMPILED: "WeakKeyDictionary[Netlist, tuple]" = WeakKeyDictionary()


def compiled(netlist: Netlist) -> CompiledNetlist:
    """The cached compiled form of ``netlist``.

    Keyed by the netlist's mutation counter plus its output list (the
    outputs are observation points but not part of the gate graph), so
    in-place growth or output changes trigger a recompile.
    """
    sig = (netlist.version, tuple(netlist.outputs))
    hit = _COMPILED.get(netlist)
    if hit is not None and hit[0] == sig:
        return hit[1]
    comp = CompiledNetlist(netlist)
    _COMPILED[netlist] = (sig, comp)
    return comp


# ---------------------------------------------------------------------------
# content-hash netlist cache (warm-worker compiled-program reuse)

#: per-instance (version, outputs) -> (digest, blob) memo, so repeated
#: sharded dispatches of one netlist hash and pickle it exactly once.
_CONTENT_MEMO: "WeakKeyDictionary[Netlist, tuple]" = WeakKeyDictionary()

#: per-process content-hash -> Netlist registry.  Holding the netlist
#: object alive keeps its :data:`_COMPILED` entry (a WeakKeyDictionary)
#: alive too, so a warm worker that has seen a design serves every later
#: shard/job from the cached :class:`CompiledNetlist` without ever
#: re-running levelization -- and, under the shm transport, without even
#: unpickling the body again.
_BY_HASH: "OrderedDict[str, Netlist]" = OrderedDict()
_HASH_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def netlist_blob(netlist: Netlist) -> tuple[str, bytes]:
    """``(content digest, pickled body)`` for ``netlist``, memoised.

    The digest follows the recipe-hash discipline of
    :mod:`repro.flow.cache`: a sha256 over a canonical rendering of the
    gate graph (name, kind, fanins, scan flag, in insertion order) plus
    the output list -- equal-content netlists hash equal across
    processes, unlike ``id``- or pickle-byte-based keys.  The memo is
    invalidated by the netlist's mutation counter and output list.
    """
    sig = (netlist.version, tuple(netlist.outputs))
    hit = _CONTENT_MEMO.get(netlist)
    if hit is not None and hit[0] == sig:
        return hit[1], hit[2]
    h = hashlib.sha256()
    h.update(netlist.name.encode())
    for g in netlist:
        h.update(
            f"\n{g.name}|{g.kind}|{','.join(g.inputs)}|{int(g.scan)}"
            .encode()
        )
    h.update(("\nouts:" + ",".join(netlist.outputs)).encode())
    digest = h.hexdigest()
    blob = pickle.dumps(netlist, protocol=pickle.HIGHEST_PROTOCOL)
    _CONTENT_MEMO[netlist] = (sig, digest, blob)
    return digest, blob


def netlist_hash(netlist: Netlist) -> str:
    """The content digest alone (see :func:`netlist_blob`)."""
    return netlist_blob(netlist)[0]


def resolve_netlist(digest: str, payload) -> Netlist:
    """The process-local netlist for ``digest``, decoding at most once.

    ``payload`` supplies the body on a cache miss: a :class:`Netlist`,
    raw pickled ``bytes``, or a zero-argument callable returning either
    (a shard worker's lazy :func:`repro.flow.shm.fetch`, so a warm
    worker never fetches the body on a hit).  The registry is a bounded
    LRU (:data:`repro.flow.shm.WORKER_CACHE_SIZE` entries).
    """
    hit = _BY_HASH.get(digest)
    if hit is not None:
        _BY_HASH.move_to_end(digest)
        _HASH_STATS["hits"] += 1
        return hit
    _HASH_STATS["misses"] += 1
    if callable(payload):
        payload = payload()
    if isinstance(payload, (bytes, bytearray, memoryview)):
        payload = pickle.loads(payload)
    if not isinstance(payload, Netlist):
        raise NetlistError(
            f"no cached netlist for {digest[:12]} and no body provided"
        )
    _BY_HASH[digest] = payload
    from repro.flow import shm

    while len(_BY_HASH) > shm.WORKER_CACHE_SIZE:
        _BY_HASH.popitem(last=False)
        _HASH_STATS["evictions"] += 1
    return payload


def netlist_cache_stats() -> dict[str, int]:
    """Per-process hash-cache counters (asserted by the dispatch tests)."""
    return dict(_HASH_STATS, entries=len(_BY_HASH))


# ---------------------------------------------------------------------------
# transition-fault support (vector pairs)

def transition_pair_detect(
    netlist: Netlist,
    pair: tuple[Mapping[str, int], Mapping[str, int]],
    fault_sites: Sequence[tuple[str, bool]],
    width: int = 64,
    initial_state: Mapping[str, int] | None = None,
) -> dict[tuple[str, bool], int]:
    """Detection masks for transition faults under one vector pair.

    ``fault_sites`` is a list of ``(net, rising)`` tuples; the return
    maps each to the packed mask of detecting patterns.  The good
    machine runs once per pair (the interpreter re-ran it per fault);
    each faulty machine is a cone-restricted launch-cycle replay.
    """
    k = compiled(netlist)
    v1, v2 = pair
    mask = k._mask_words(width)
    pw1 = k._pi_matrix(v1, width)
    pw2 = k._pi_matrix(v2, width)
    state0 = k._state_matrix(initial_state, width)
    VG1, gs1 = k.good_cycle(pw1, state0, width)
    VG2, gs2 = k.good_cycle(pw2, gs1, width)
    VS = VG2.copy()
    out: dict[tuple[str, bool], int] = {}
    for net, rising in fault_sites:
        if net not in k.index:
            out[(net, rising)] = 0
            continue
        site = k.index[net]
        before = VG1[site]
        after = VG2[site]
        if rising:
            slow = ~before & after & mask
        else:
            slow = before & ~after & mask
        if not slow.any():
            out[(net, rising)] = 0
            continue
        cone = k.cone(site)
        faulty_value = (after & ~slow) | (before & slow)
        bnxt = k._faulty_cycle(VS, cone, gs1, faulty_value, mask)
        diff = k.diff_words(VS, VG2, bnxt, gs2, cone) & slow
        k._restore(VS, VG2, cone)
        out[(net, rising)] = k.int_from_words(diff)
    return out
