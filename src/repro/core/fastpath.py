"""Batched fast-path engine for the ``_sm_step`` hot path.

:class:`FastSimulator` is a drop-in replacement for
:class:`~repro.core.engine.Simulator` selected with
``SimulatorConfig(engine="fast")``.  It keeps every component of the
reference engine — driver, GMMU, MSHRs, PCI-e link, event queue, policies
— and overrides only the per-SM issue loop, which profiling shows is where
a reference run spends most of its time (per-access warp-list rebuilds,
TLB ``OrderedDict`` traffic, one python call per touched structure).

Design
======

One SM step event retires up to ``SM_QUANTUM`` accesses.  The fast path
handles that quantum in stages:

1. **Schedule generation** (pure): replicate the round-robin warp
   selection of ``StreamingMultiprocessor.next_ready_warp`` *without
   mutating anything*.  In the common case — every ready warp holds at
   least its share of the quantum — the schedule is a perfect rotation,
   so the page/write vectors assemble with one index gather from the
   SM's cached, concatenated numpy stream arrays (slots ``j::R`` belong
   to the ``j``-th ready warp).
   Otherwise (a warp exhausts mid-window) a scalar scan simulates the
   rotation slot by slot.  Generation applies nothing, so a window
   that turns out not to be all-hit costs only the wasted scan.

2. **Vectorized hit classification**: each SM's TLB is a
   :class:`MaskedTlb` that mirrors its membership into a numpy bit
   array (:class:`PageBitmap`).  One gather over the scheduled page
   vector classifies the quantum.

3. **Deferred all-hit windows**: when every access hits (the
   steady-state common case) the window commits only its *eager* state
   — hit counters, the SM clock (``np.cumsum`` issue times: sequential
   left-to-right float accumulation, bit-identical to the reference
   loop's repeated ``+=``), warp cursors, the round-robin index — and
   *defers* the recency bookkeeping by appending the page/write
   vectors to pending buffers:

   * dirty marks and eviction-policy touches accumulate globally
     (in execution order across SMs);
   * TLB hit refreshes accumulate per SM.

   The pending span is compressed at flush time to one operation per
   distinct page in last-access order (``np.unique`` over the reversed
   concatenation).  For pure recency bookkeeping — every built-in
   eviction policy, the TLB's LRU order, and the page table's dirty
   bits — this is provably equivalent to
   replaying every access, because only the final per-page state is
   observable and it depends only on each page's last touch (dirty ORs
   across the span).

   Deferral is sound because the pending state is invisible until
   *observed*, and every observation point flushes first:
   :meth:`~repro.core.engine.Simulator._flush_pending` runs before any
   non-SM-step event callback (all driver/link/migration events), on
   ``synchronize``, before ``prefetch_async`` / ``cpu_access`` driver
   entries, before invariant checks, and before any reference-path
   issue (misses mutate the TLB and walk the page table).  Between two
   flushes no TLB membership, page validity, or policy structure can
   change, which is exactly what makes the compression exact.  Spans
   deliberately survive kernel-launch boundaries — iterative workloads
   re-touch the same pages every kernel, and the cross-kernel span is
   where last-touch compression actually pays.

4. **Reference fallback**: a window with any TLB miss applies
   nothing.  The engine flushes all pending batches and issues the
   whole quantum through the reference loop
   (``super()._issue_quantum``), so TLB fills, page walks, fault
   registration, MSHR merging, driver batching and warp blocking run
   the reference code itself, not a copy of it.  The engine thus
   retires accesses exactly two ways: as a deferred all-hit window or
   through the reference loop.  When a fallback quantum registers a
   new far fault, the SM also starts a short cooldown during which it
   issues through the reference loop directly: fault-bound phases are
   not batching targets, and the cooldown avoids paying schedule
   generation for windows that will fall back anyway.  Plain
   capacity-miss windows skip the cooldown — the next window is
   usually all-hit again.  ``FastSimulator.window_counts`` counts how
   each quantum went (deferred, or why it ran the reference loop).

Equivalence is enforced, not assumed: the ``fastpath-equiv`` validation
claim and ``repro bench --compare`` assert byte-identical
``SimStats.to_json()`` between both engines across a seed × workload ×
pairing × oversubscription matrix (see :mod:`repro.bench`).

Modes the fast path declines (``record_access_trace`` samples every
access in issue order; ``l2_enabled`` threads order-dependent cache state
through the hit path) run the reference loop unchanged, so selecting
``engine="fast"`` is *always* result-identical, never conditionally.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..config import SimulatorConfig
from ..errors import SimulationError
from ..gpu.sm import StreamingMultiprocessor
from ..gpu.warp import WarpState
from ..memory.page import grown_window
from ..memory.tlb import Tlb
from .engine import Simulator
from .evict.base import EvictionPolicy
from .prefetch.base import Prefetcher

#: Outcomes counted in :attr:`FastSimulator.window_counts`: committed as
#: a deferred all-hit window; sent to the reference loop because the SM
#: was mostly blocked (or had no ready warp), or because the window
#: missed the TLB at its first access or later in it; or issued on the
#: reference loop during a post-fault cooldown.
WINDOW_OUTCOMES = ("deferred", "blocked_sm", "first_access_miss",
                   "later_miss", "cooldown")


class PageBitmap:
    """Residency bits over a window of global page indices.

    The window grows like the page table's (see
    :func:`~repro.memory.page.grown_window`); ``gather`` treats pages
    outside it as unset.
    """

    __slots__ = ("_base", "_bits")

    def __init__(self) -> None:
        self._base = 0
        self._bits = np.zeros(0, dtype=bool)

    def _ensure(self, page: int) -> None:
        size = self._bits.shape[0]
        if 0 <= page - self._base < size:
            return
        base, new_size, offset = grown_window(self._base, size, page)
        bits = np.zeros(new_size, dtype=bool)
        bits[offset:offset + size] = self._bits
        self._base = base
        self._bits = bits

    def set(self, page: int) -> None:
        self._ensure(page)
        self._bits[page - self._base] = True

    def clear(self, page: int) -> None:
        index = page - self._base
        if 0 <= index < self._bits.shape[0]:
            self._bits[index] = False

    def clear_all(self) -> None:
        self._bits[:] = False

    def gather(self, pages: np.ndarray) -> np.ndarray:
        """Bit per page of ``pages`` (int64 array); out-of-window = False."""
        index = pages - self._base
        size = self._bits.shape[0]
        if size == 0:
            return np.zeros(pages.shape[0], dtype=bool)
        inside = (index >= 0) & (index < size)
        if inside.all():
            return self._bits[index]
        out = np.zeros(pages.shape[0], dtype=bool)
        out[inside] = self._bits[index[inside]]
        return out


class MaskedTlb(Tlb):
    """A :class:`~repro.memory.tlb.Tlb` that mirrors membership into a
    :class:`PageBitmap` so a whole quantum's hits classify in one gather,
    and that queues deferred hit refreshes in ``pend``.

    Only membership-changing operations touch the bitmap: the reference
    loop's fills (``insert``) and the driver's shootdowns
    (``invalidate_many``).  ``lookup`` and ``refresh_many`` (pure LRU
    reordering) stay as cheap as the base class.  Replacement order and
    hit/miss accounting are inherited untouched, so behaviour is
    identical by construction.  ``pend`` holds page vectors of deferred
    all-hit windows.  Membership is frozen while anything is pending,
    because the reference loop and every driver event run only after a
    flush.  Applying the refreshes late — compressed to last-access
    order — therefore reorders the LRU exactly as eager refreshes would
    have.
    """

    def __init__(self, entries: int) -> None:
        super().__init__(entries)
        self.mask = PageBitmap()
        #: Deferred hit-refresh page vectors (np.int64), execution order.
        self.pend: list[np.ndarray] = []

    def insert(self, page: int) -> None:
        entries = self._entries
        if page in entries:
            entries.move_to_end(page)
            return
        if len(entries) >= self.capacity:
            victim, _ = entries.popitem(last=False)
            self.mask.clear(victim)
        entries[page] = None
        self.mask.set(page)

    def invalidate_many(self, pages: set[int]) -> set[int]:
        hit = super().invalidate_many(pages)
        clear = self.mask.clear
        for page in hit:
            clear(page)
        return hit

    def flush(self) -> None:
        super().flush()
        self.mask.clear_all()
        # Dropping the whole TLB makes pending recency reorders moot.
        self.pend.clear()


class FastSimulator(Simulator):
    """Batched engine; results byte-identical to :class:`Simulator`."""

    #: Below this ready-warp share the quantum is fault-bound and the
    #: schedule scan degenerates; the reference loop handles it directly.
    _MIN_READY_FRACTION = 0.25
    #: Quanta issued through the reference loop directly after a
    #: fallback quantum registered a new far fault; fault-bound phases
    #: would otherwise pay schedule generation and a gather per window
    #: only to fall back anyway.  Fallbacks that register no new far
    #: fault (plain capacity misses) start no cooldown: the next window
    #: is usually all-hit again.
    _MISS_COOLDOWN = 8
    #: Minimum per-warp share for the strided-slice schedule; below it
    #: (many warps, tiny slices) the scalar scan is cheaper.
    _MIN_UNIFORM_SHARE = 2

    def __init__(self, config: SimulatorConfig, *,
                 prefetcher: Prefetcher | None = None,
                 eviction: EvictionPolicy | None = None) -> None:
        super().__init__(config, prefetcher=prefetcher, eviction=eviction)
        # Defense in depth behind config.validate(): the vectorized access
        # windows only preserve byte-identity for policies that declared
        # it, so an unsupported policy must never reach this engine (an
        # injected instance bypasses the config-time check).
        for policy in (self.driver.prefetcher, self.driver.eviction):
            if not policy.supports_fastpath:
                raise SimulationError(
                    f"policy {policy.name!r} does not support the fast "
                    f"engine (supports_fastpath=False); use "
                    f"engine='reference'"
                )
        #: Per-access instrumentation or L2 state threads order through
        #: the hit path; those modes run the reference loop verbatim.
        self._fast_issue = not config.record_access_trace \
            and not config.l2_enabled
        self._access_ns = config.cycles_per_access * self._ns_per_cycle
        #: Deferred all-hit windows, execution order across all SMs:
        #: page vectors and write masks (None = no writes in that window).
        self._pend_pages: list[np.ndarray] = []
        self._pend_writes: list[np.ndarray | None] = []
        #: (budget, n_ready) -> (lane % n_ready, lane // n_ready) index
        #: patterns for the rotation gather of :meth:`_uniform_window`.
        self._rot_patterns: dict[tuple[int, int], tuple] = {}
        #: Outcome -> count of ``_issue_quantum`` calls (see
        #: ``WINDOW_OUTCOMES``); the counts sum to the quanta issued and
        #: stay zero when the engine declines its fast path.  Kept out
        #: of ``SimStats`` so no digest sees them.
        self.window_counts = dict.fromkeys(WINDOW_OUTCOMES, 0)
        if self._fast_issue:
            for sm in self.sms:
                sm.tlb = MaskedTlb(config.tlb_entries)
                sm.fast_cooldown = 0
                sm.fast_cache = None

    # ---------------------------------------------------------------- flush
    def _flush_pending(self) -> None:
        """Apply deferred recency state (see the module docstring).

        Compresses the accumulated span to one touch per distinct page
        in last-access order before walking the python structures, so a
        long all-hit phase costs one numpy dedup plus O(working set)
        python work instead of O(accesses).
        """
        if not self._fast_issue:
            return
        pend = self._pend_pages
        if not pend:
            # Every window that queues TLB refreshes in ``tlb.pend``
            # queues its accesses here too: nothing is pending.
            return
        pages = pend[0] if len(pend) == 1 else np.concatenate(pend)
        writes_list = self._pend_writes
        writes: np.ndarray | None = None
        if any(w is not None for w in writes_list):
            if len(writes_list) == 1:
                writes = writes_list[0]
            else:
                writes = np.concatenate([
                    w if w is not None
                    else np.zeros(p.shape[0], dtype=bool)
                    for p, w in zip(pend, writes_list)
                ])
        pend.clear()
        self._pend_writes.clear()
        total = pages.shape[0]
        last_rev = np.unique(pages[::-1], return_index=True)[1]
        touched = pages[np.sort(total - 1 - last_rev)]
        self.page_table.mark_access_span(
            touched, None if writes is None else pages[writes]
        )
        self.driver.eviction.on_accessed_many(touched.tolist(), self.ctx)
        for sm in self.sms:
            tlb_pend = sm.tlb.pend
            if tlb_pend:
                if len(tlb_pend) == 1:
                    arr = tlb_pend[0]
                else:
                    arr = np.concatenate(tlb_pend)
                tlb_pend.clear()
                total = arr.shape[0]
                sel = np.sort(
                    total - 1 - np.unique(arr[::-1], return_index=True)[1]
                )
                sm.tlb.refresh_many(arr[sel].tolist())

    # ------------------------------------------------------------ issue loop
    def _issue_quantum(self, sm: StreamingMultiprocessor,
                       budget: int) -> None:
        if not self._fast_issue:
            super()._issue_quantum(sm, budget)
            return
        cooldown = sm.fast_cooldown
        if cooldown:
            sm.fast_cooldown = cooldown - 1
            self.window_counts["cooldown"] += 1
        elif self._fast_pass(sm, budget):
            return
        self._flush_pending()
        far_faults = self.stats.far_faults
        super()._issue_quantum(sm, budget)
        if not cooldown and self.stats.far_faults != far_faults:
            sm.fast_cooldown = self._MISS_COOLDOWN

    def _fast_pass(self, sm: StreamingMultiprocessor, budget: int) -> bool:
        """Retire the quantum as one deferred all-hit window, if it is one.

        Returns True when the quantum is done: it was committed as a
        deferred all-hit window, or no warp was ready to issue.  Returns
        False with nothing applied — some access misses the TLB, or the
        SM is mostly blocked — so the caller issues the whole quantum
        through the reference loop.
        """
        warps = sm.all_warps()
        n = len(warps)
        # Ready warps in the cyclic order the round-robin scan first
        # reaches them from the current rotation index.
        rr = sm._rr_index
        rot: list[int] = []
        for k in range(n):
            pos = rr + k
            if pos >= n:
                pos -= n
            if warps[pos].state is WarpState.READY:
                rot.append(pos)
        ready_count = len(rot)
        if not ready_count or ready_count < n * self._MIN_READY_FRACTION:
            # Mostly-blocked SM: fault-bound, not a batching target.
            # With no warp ready there is nothing to issue at all.
            self.window_counts["blocked_sm"] += 1
            return not ready_count

        # --- stage 1a: perfect-rotation schedule via one index gather.
        base, extra = divmod(budget, ready_count)
        if base >= self._MIN_UNIFORM_SHARE:
            committed = self._uniform_window(sm, warps, rot, budget,
                                             base, extra)
            if committed is not None:
                return committed

        # --- stage 1b: simulate the round-robin schedule slot by slot.
        cursors = [w.cursor for w in warps]
        lengths = [len(w.accesses) for w in warps]
        ready = [w.state is WarpState.READY for w in warps]
        slot_pos: list[int] = []
        slot_pages: list[int] = []
        slot_writes: list[bool] = []
        index = rr
        for _ in range(budget):
            if not ready_count:
                break
            j = index
            while not ready[j]:
                j += 1
                if j == n:
                    j = 0
            cursor = cursors[j]
            page, is_write = warps[j].accesses[cursor]
            slot_pos.append(j)
            slot_pages.append(page)
            slot_writes.append(is_write)
            cursor += 1
            cursors[j] = cursor
            if cursor == lengths[j]:
                ready[j] = False
                ready_count -= 1
            index = j + 1
            if index == n:
                index = 0
        total = len(slot_pos)
        if total == 0:
            return True

        # --- stage 2: classify the window against the TLB bitmap.
        pages = np.fromiter(slot_pages, np.int64, total)
        if not self._all_hit(sm, pages):
            return False
        self._defer_hits(sm, pages,
                         np.fromiter(slot_writes, bool, total))
        counts = np.bincount(np.fromiter(slot_pos, np.int64, total),
                             minlength=n).tolist()
        for pos, count in enumerate(counts):
            if count:
                warp = warps[pos]
                warp.cursor += count
                if warp.cursor >= lengths[pos]:
                    warp.state = WarpState.DONE
        sm._rr_index = (slot_pos[-1] + 1) % n
        return True

    # --------------------------------------------------- perfect rotation
    def _stream_cache(self, sm: StreamingMultiprocessor,
                      warps: list) -> tuple:
        """Concatenated page/write stream arrays of the SM's warp pool.

        Cached on the SM and invalidated whenever the resident warp set
        changes; any change either alters ``len(warps)`` or replaces the
        list's last element with a freshly constructed :class:`Warp`
        (blocks are only ever appended, and reaping shrinks the list),
        so ``(len, first, last)`` identity is a sound cache key.
        """
        n = len(warps)
        cache = sm.fast_cache
        if cache is not None and cache[0] == n and cache[1] is warps[0] \
                and cache[2] is warps[-1]:
            return cache
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(warp.accesses) for warp in warps], out=starts[1:])
        if starts[n]:
            # A rebuild follows block placement, so most resident warps
            # are new.  Converting the whole pool at once re-converts
            # the few survivors of a half-replaced pool, yet beats
            # caching per warp: one call over column tuples converts
            # about twice as fast as per-warp 2-D arrays of the
            # (page, write) pairs.
            pages, writes = zip(*chain.from_iterable(
                warp.accesses for warp in warps
            ))
            cat_pages = np.array(pages, dtype=np.int64)
            cat_writes = np.array(writes, dtype=bool)
        else:
            cat_pages = np.zeros(0, dtype=np.int64)
            cat_writes = np.zeros(0, dtype=bool)
        cache = (n, warps[0], warps[-1], cat_pages, cat_writes, starts)
        sm.fast_cache = cache
        return cache

    def _uniform_window(self, sm: StreamingMultiprocessor, warps: list,
                        rot: list[int], budget: int, base: int,
                        extra: int) -> bool | None:
        """Assemble and retire a window whose schedule is a pure rotation.

        When every ready warp holds at least its share (``base``
        accesses, +1 for the first ``extra`` warps in rotation order),
        warp ``rot[j]`` owns exactly slots ``j::R`` of the window and
        the whole window assembles with one fancy-index gather from the
        SM's concatenated stream arrays (slot ``i`` reads element
        ``cursor[i % R] + i // R`` of warp ``rot[i % R]``'s segment).
        Returns None when some warp runs out mid-window (the scalar
        schedule scan handles that case); otherwise the
        :meth:`_fast_pass` verdict for the window.
        """
        n_ready = len(rot)
        cache = self._stream_cache(sm, warps)
        cat_pages, cat_writes, starts = cache[3], cache[4], cache[5]
        rot_arr = np.fromiter(rot, np.int64, n_ready)
        cursors = np.fromiter((warps[p].cursor for p in rot), np.int64,
                              n_ready)
        segment = starts[rot_arr]
        remaining = starts[rot_arr + 1] - segment - cursors
        if extra:
            if (remaining[:extra] <= base).any() \
                    or (remaining[extra:] < base).any():
                return None
        elif (remaining < base).any():
            return None
        pat = self._rot_patterns.get((budget, n_ready))
        if pat is None:
            lane = np.arange(budget, dtype=np.int64)
            pat = (lane % n_ready, lane // n_ready)
            self._rot_patterns[(budget, n_ready)] = pat
        mod_pat, div_pat = pat
        idx = (segment + cursors)[mod_pat] + div_pat
        pages = cat_pages[idx]
        if not self._all_hit(sm, pages):
            return False
        self._defer_hits(sm, pages, cat_writes[idx])
        for j, pos in enumerate(rot):
            warp = warps[pos]
            take = base + 1 if j < extra else base
            cursor = warp.cursor + take
            warp.cursor = cursor
            if cursor >= len(warp.accesses):
                warp.state = WarpState.DONE
        last_pos = rot[(budget - 1) % n_ready]
        sm._rr_index = last_pos + 1 if last_pos + 1 < len(warps) else 0
        return True

    # ------------------------------------------------- deferred hit window
    def _all_hit(self, sm: StreamingMultiprocessor,
                 pages: np.ndarray) -> bool:
        """True when every page of the window is in the SM's TLB;
        otherwise counts where the window first missed."""
        hit = sm.tlb.mask.gather(pages)
        if hit.all():
            return True
        self.window_counts["first_access_miss" if not hit[0]
                           else "later_miss"] += 1
        return False

    def _defer_hits(self, sm: StreamingMultiprocessor, pages: np.ndarray,
                    writes: np.ndarray) -> None:
        """Commit the SM-wide state of an all-hit window, deferred.

        Eager state — hit counters and the SM clock — is exactly what
        the reference loop would leave; the recency bookkeeping joins
        the pending buffers.  Callers advance warp cursors and the
        round-robin index themselves.
        """
        self.window_counts["deferred"] += 1
        total = pages.shape[0]
        times = np.empty(total + 1)
        times[0] = sm.time_ns
        times[1:] = self._access_ns
        np.cumsum(times, out=times)
        sm.time_ns = float(times[-1])
        self.stats.tlb_hits += total
        tlb = sm.tlb
        tlb.hits += total
        self._pend_pages.append(pages)
        self._pend_writes.append(writes if writes.any() else None)
        tlb.pend.append(pages)
