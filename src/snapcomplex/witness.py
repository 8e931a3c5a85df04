"""The witness-structure calculus.

A witness table is a sequence of pairs of finite process-id sets
``((W_0, G_0), ..., (W_t, G_t))``: layer i records which processes are
witnessed at round i (W_i) and which turn into invisible ghosts there (G_i).
Tables classify into three nested classes:

* prestructure -- the shape conditions hold: (P1) every later W_i/G_i is
  contained in W_0, (P2) the ghost layers are pairwise disjoint, (P3) a
  ghosted process is never witnessed at the same or a later layer;
* stable -- additionally the last witness layer is nonempty when t >= 1;
* witness -- every witness layer W_1..W_t is nonempty.

The same objects have an equivalent trace presentation: per process, the set
of layer indices where it occurs.  Both presentations are implemented, with
exact round-trip translation.  The three operators are the canonical form C
(delete empty witness layers, merging their ghost sets into the next kept
layer), the stabilization st_S (ghost the set S and truncate the traces at
the last layer that still witnesses something outside S and the ghosts), and
ghosting Gamma_S = C . st_S, the face operator of the snapshot complexes.
Each is written once, on the table layers and not through the trace form:
``_stabilized`` is st_S, one downward scan, and ``_merge_empty`` is C,
behind ``stabilize``, ``canonical_form`` and ``ghost``.  ``_stabilized``
raises nothing: st_S is defined for S inside the active set, and
``stabilize`` and ``ghost`` check that precondition first.  ``ghost`` runs
st_S and merges only when a W part emptied, so it makes no intermediate
table.  ``ghost_one``, the one-process face kernel behind ``build``, keeps
only a splice of its own: when p is not alone in the last W part, it
changes the one or two layers around p's last layer, which is most of
``build``'s calls and cheaper than the scan.  When p alone is witnessed
last it runs ``_stabilized``.  The tests hold it to the oracle
``ghost_oracle`` on every face they reach.
The operators build their results with the trusted constructor: they are
valid by construction.  So do ``complexes.enumerate_top``, whose tops are
witness structures by construction, and the stratum transport maps of
``complexes`` and ``decomposition``, whose results take their class from
``kind_of``.  Every other table, including any built from outside input, is
validated.  ``keys`` makes the JSON keys of many tables at once, printing
each distinct layer once.

Tables are hash-consed: each ``pairs`` encoding has one ``WitnessTable``
object for the life of the process, so a face reached from many cofaces, or
a stratum image, is the lattice's own object.  Equality and hashing are
object identity.  The layers are hash-consed one level below: each (W, G)
layer of a table is the one object of its value.  Everything here is
immutable.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, NamedTuple

from .errors import InvalidArgument, PreconditionViolation
from .rounds import RoundCounter, is_natural

PRESTRUCTURE = "prestructure"
STABLE = "stable"
WITNESS = "witness"


class Classification(NamedTuple):
    kind: str  # "invalid" | "prestructure" | "stable" | "witness"
    violated: str | None = None  # first violated condition when invalid

    def __bool__(self) -> bool:
        return self.kind != "invalid"


def _normalize_pairs(pairs) -> tuple:
    """The canonical encoding of a raw pair sequence, and the one shape rule:
    anything but an iterable of (W, G) pairs of collections of nonnegative
    int ids raises ``InvalidArgument``."""
    try:
        layers = [(entry, *map(tuple, entry)) for entry in pairs]
    except TypeError as exc:  # pairs, a layer or one of its parts is not iterable
        raise InvalidArgument(f"not a sequence of (W, G) pairs: {exc}") from None
    out = []
    for entry, *parts in layers:
        if len(parts) != 2:
            raise InvalidArgument(f"a layer is one (W, G) pair: {entry!r}")
        w, g = parts
        # ids are checked before a set can merge True into 1
        if not all(map(is_natural, w + g)):
            raise InvalidArgument(f"process ids must be nonnegative integers: {entry!r}")
        out.append((tuple(sorted(set(w))), tuple(sorted(set(g)))))
    return tuple(out)


def classify(pairs) -> Classification:
    """Return the strongest class of a raw pair sequence, or the first violation."""
    try:
        pairs = _normalize_pairs(pairs)
    except InvalidArgument:
        return Classification("invalid", "shape")
    return _classify_normalized(pairs)


def _classify_normalized(pairs: tuple) -> Classification:
    if not pairs:
        return Classification("invalid", "shape")
    w0 = set(pairs[0][0])
    for w, g in pairs[1:]:
        if not (w0.issuperset(w) and w0.issuperset(g)):
            return Classification("invalid", "P1")
    seen_ghosts = set()
    for _, g in pairs:
        if not seen_ghosts.isdisjoint(g):
            return Classification("invalid", "P2")
        seen_ghosts.update(g)
    ghosted = set()
    for w, g in pairs:
        ghosted.update(g)
        if not ghosted.isdisjoint(w):
            return Classification("invalid", "P3")
    return Classification(kind_of(pairs))


def kind_of(pairs) -> str:
    """The class of pairs that already form a prestructure, read off the W parts."""
    if len(pairs) > 1 and not pairs[-1][0]:
        return PRESTRUCTURE
    if any(not w for w, _ in pairs[1:]):
        return STABLE
    return WITNESS


def _layer_text(pair) -> str:
    """The compact JSON of one (W, G) layer, built by string joins: the ids
    are ints and never bools, so ``str`` prints them as JSON does."""
    w, g = pair
    return "[[" + ",".join(map(str, w)) + "],[" + ",".join(map(str, g)) + "]]"


# pairs -> its one table, and (W, G) layer -> its one object, both kept for
# the life of the process: a lattice has many tables but few distinct layers
_TABLES = {}
_LAYERS = {}


class WitnessTable:
    """A validated witness prestructure in table form.

    A table holds only its pairs and its class.  ``pairs`` is the canonical
    encoding: a tuple of (sorted W tuple, sorted G tuple) pairs.  Tables are
    interned by it, so equal encodings are the same object, and equality and
    hashing are identity.  Support, ghost and active sets, dimension, traces
    and key are read off the layers on demand; nothing is cached on the
    instance.
    """

    __slots__ = ("pairs", "classification")

    def __new__(cls, pairs):
        pairs = _normalize_pairs(pairs)
        c = _classify_normalized(pairs)
        if not c:
            raise InvalidArgument(f"not a witness prestructure: {c.violated}")
        return cls._trusted(pairs, c.kind)

    @classmethod
    def _trusted(cls, pairs: tuple, kind: str) -> "WitnessTable":
        """The one table of pairs that are normalized, valid and of class
        ``kind`` by construction, made and stored on first use.  Only the
        validating constructor, the three operators here
        (``canonical_form``, ``stabilize`` and ``ghost``, which wrap the
        layers of ``_merge_empty`` and ``_stabilized``), the one-process
        face kernel ``ghost_one``, ``complexes.enumerate_top`` and the
        stratum transport maps (``decomposition.gamma``/``rho``,
        ``complexes.delta_v``/``undelta_v``) use it; every other input goes
        through the validating constructor.  A new table's layers are
        replaced by their ``_LAYERS`` objects before it is stored."""
        self = _TABLES.get(pairs)
        if self is None:
            self = object.__new__(cls)
            self.pairs = tuple([_LAYERS.setdefault(pair, pair) for pair in pairs])
            self.classification = kind
            # setdefault is atomic, so threads that race on new pairs share one table
            self = _TABLES.setdefault(self.pairs, self)
        return self

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which returns the one table
        return WitnessTable, (self.pairs,)

    def __repr__(self) -> str:
        return f"WitnessTable({self.key})"

    # -- layers ------------------------------------------------------------

    @property
    def t(self) -> int:
        return len(self.pairs) - 1

    def w(self, i: int) -> frozenset:
        return frozenset(self.pairs[i][0])

    def g(self, i: int) -> frozenset:
        return frozenset(self.pairs[i][1])

    def r_set(self, i: int) -> frozenset:
        return frozenset(self.pairs[i][0] + self.pairs[i][1])

    # -- derived data --------------------------------------------------------

    @property
    def supp(self) -> frozenset:
        return self.r_set(0)

    @property
    def ghost_set(self) -> frozenset:
        return frozenset(p for _, g in self.pairs for p in g)

    @property
    def active_set(self) -> frozenset:
        # G_0 avoids W_0 (P3) and every later G_i lies inside it (P1)
        return frozenset(self.pairs[0][0]).difference(*(g for _, g in self.pairs[1:]))

    @property
    def dim(self) -> int:
        """|A| - 1, where |A| = |W_0| - sum of |G_i| over i >= 1: the later
        ghost layers are disjoint (P2) subsets of W_0 (P1)."""
        n = len(self.pairs[0][0]) - 1
        for _, g in self.pairs[1:]:
            n -= len(g)
        return n

    @property
    def color(self) -> int | None:
        """The unique active process of a 0-dimensional structure."""
        if self.dim != 0:
            return None
        return next(iter(self.active_set))

    @property
    def traces(self) -> dict:
        """Map process -> frozenset of layer indices where it occurs."""
        out = {p: [] for p in self.supp}
        for i, (w, g) in enumerate(self.pairs):
            for p in w + g:
                out[p].append(i)
        return {p: frozenset(ix) for p, ix in out.items()}

    def trace(self, p: int) -> frozenset:
        return self.traces[p]

    def m_count(self, p: int) -> int:
        return len(self.traces[p])

    @property
    def is_stable(self) -> bool:
        return self.classification in (STABLE, WITNESS)

    @property
    def is_witness(self) -> bool:
        return self.classification == WITNESS

    @property
    def key(self) -> str:
        """The compact JSON of the pairs, one ``_layer_text`` per layer."""
        return "[" + ",".join(map(_layer_text, self.pairs)) + "]"

    @classmethod
    def from_key(cls, key: str) -> "WitnessTable":
        try:
            pairs = json.loads(key)
        except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep for the decoder
            raise InvalidArgument(f"not a table key: {exc}") from None
        return cls(pairs)


def keys(tables) -> dict:
    """Map each table to its ``key``, printing each distinct layer once per
    call: a lattice has many tables but few distinct layers."""
    text = {}  # layer pair -> its _layer_text
    return {
        s: "[" + ",".join([text.get(pair) or text.setdefault(pair, _layer_text(pair)) for pair in s.pairs]) + "]"
        for s in tables
    }


# ---------------------------------------------------------------------------
# Trace form
# ---------------------------------------------------------------------------


class TraceForm(NamedTuple):
    """Trace presentation: active ids, ghost ids, and one trace per process."""

    active: frozenset
    ghosts: frozenset
    traces: tuple  # sorted ((pid, sorted index tuple), ...)

    def trace(self, p: int) -> frozenset:
        for pid, ix in self.traces:
            if pid == p:
                return frozenset(ix)
        raise KeyError(p)

    @property
    def supp(self) -> frozenset:
        return self.active | self.ghosts


def trace_form(active: Iterable[int], ghosts: Iterable[int], traces: Mapping[int, Iterable[int]]) -> TraceForm:
    """Validate and normalize a trace form; raises on a violated condition.

    Ids and indices obey the one ``is_natural`` rule, checked before a set
    can merge True into 1."""
    if not isinstance(traces, Mapping):
        raise InvalidArgument(f"traces must map each id to its indices, got {type(traces).__name__}")
    try:
        active, ghosts = tuple(active), tuple(ghosts)
        traces = {p: tuple(ix) for p, ix in traces.items()}
    except TypeError as exc:  # a set or a trace is not a collection
        raise InvalidArgument(f"not a trace form: {exc}") from None
    if not all(map(is_natural, (*active, *ghosts, *traces))):
        raise InvalidArgument("process ids must be nonnegative integers")
    active, ghosts = frozenset(active), frozenset(ghosts)
    if active & ghosts:
        raise InvalidArgument(f"active and ghost sets overlap on {sorted(active & ghosts)}")
    if set(traces) != set(active | ghosts):
        raise InvalidArgument("trace domain must be exactly the union of active and ghost sets")
    norm = []
    for p, ix in sorted(traces.items()):  # the ids are distinct, so no trace is compared
        if not ix or not all(map(is_natural, ix)):
            raise InvalidArgument(f"trace of {p} must be a set of nonnegative indices")
        ix = tuple(sorted(set(ix)))
        if 0 not in ix:
            raise InvalidArgument(f"condition T violated: 0 not in the trace of {p}")
        norm.append((p, ix))
    return TraceForm(active, ghosts, tuple(norm))


def classify_trace(tf: TraceForm) -> Classification:
    """Class of a trace form: stability and witness-ness read off the traces."""
    ghost_max = [max(ix) for p, ix in tf.traces if p in tf.ghosts]
    active_traces = [set(ix) for p, ix in tf.traces if p in tf.active]
    if not tf.active:
        if any(m > 0 for m in ghost_max):
            return Classification(PRESTRUCTURE)
        return Classification(WITNESS)
    t = max(max(ix) for ix in active_traces)
    if ghost_max and max(ghost_max) > t:
        return Classification(PRESTRUCTURE)
    for k in range(1, t + 1):
        hit = any(k in ix for ix in active_traces)
        hit = hit or any(p in tf.ghosts and k in ix and k != max(ix) for p, ix in tf.traces)
        if not hit:
            return Classification(STABLE)
    return Classification(WITNESS)


def to_trace(sigma: WitnessTable) -> TraceForm:
    return trace_form(sigma.active_set, sigma.ghost_set, sigma.traces)


def from_trace(tf: TraceForm) -> WitnessTable:
    """Rebuild the table: a ghost sits in the G row at its last trace index."""
    if not tf.traces:
        return WitnessTable((((), ()),))
    t = max(max(ix) for _, ix in tf.traces)
    ghost_layer = {p: max(ix) for p, ix in tf.traces if p in tf.ghosts}
    pairs = []
    for k in range(t + 1):
        g = {p for p, last in ghost_layer.items() if last == k}
        w = {p for p, ix in tf.traces if k in ix} - g
        pairs.append((w, g))
    return WitnessTable(pairs)


# ---------------------------------------------------------------------------
# Operators: canonical form, stabilization, ghosting
# ---------------------------------------------------------------------------


def _not_active(s: frozenset) -> PreconditionViolation:
    return PreconditionViolation(f"cannot stabilize by {sorted(s)}: not a subset of the active set")


def _active_subset(sigma: WitnessTable, ghosted: Iterable[int]) -> frozenset:
    """S read once, as it may be a one-shot iterator, and checked to lie in
    the active set, W_0 less the later G parts, without building that set."""
    s = frozenset(ghosted)
    layers = sigma.pairs
    if not (s.issubset(layers[0][0]) and s.isdisjoint([q for _, g in layers[1:] for q in g])):
        raise _not_active(s)
    return s


def _stabilized(layers: tuple, s: Iterable[int]) -> tuple:
    """st_S on the layers, for an S that lies inside the active set: the
    stabilized layers, and whether a W part emptied.

    While the top W part lies inside the moving processes (S at first), its
    G part joins them and the layer is dropped: a ghost witnessed at layer j
    is ghosted above it (P3), so S and the ghosts of the dropped layers cover
    exactly the layers that st_S swallows.  When no layer is left the result
    is the empty structure on the same support.  Otherwise one scan from the
    cut down moves each moving process from W to G at the first layer that
    witnesses it, which is its last kept occurrence; each lies in W_0 (P1), so
    the scan ends by layer 0.  The hits are read from the stored W tuple, so
    ids stay as stored, and unchanged layers are sigma's own pair objects.
    """
    moving = set(s)
    cut = len(layers) - 1
    while moving.issuperset(layers[cut][0]):
        moving.update(layers[cut][1])
        cut -= 1
        if cut < 0:
            w0, g0 = layers[0]
            return (((), tuple(sorted(w0 + g0))),), False
    out = list(layers[: cut + 1])
    emptied = False
    l = cut
    while moving:
        w, g = out[l]
        if not moving.isdisjoint(w):
            hit = moving.intersection(w)
            moving -= hit
            w = tuple([q for q in w if q not in hit])
            # ghost layers are pairwise disjoint (P2), so a sort merges them
            out[l] = (w, tuple(sorted(g + tuple(hit))))
            emptied = emptied or not w
        l -= 1
    return tuple(out), emptied


def _merge_empty(layers: tuple) -> tuple:
    """C on the layers of a stable prestructure: drop each later layer with
    an empty W part, merging its G part into the next kept layer's."""
    out = [layers[0]]
    carried = ()
    for pair in layers[1:]:
        w, g = pair
        if not w:
            carried += g
        elif carried:
            # ghost layers are pairwise disjoint (P2), so a sort merges them
            out.append((w, tuple(sorted(carried + g))))
            carried = ()
        else:
            out.append(pair)
    return tuple(out)


def canonical_form(sigma: WitnessTable) -> WitnessTable:
    """Drop layers with empty W part, merging their ghosts into the next kept layer."""
    if not sigma.is_stable:
        raise PreconditionViolation("canonical form is only defined for stable prestructures")
    if sigma.is_witness:
        return sigma
    return WitnessTable._trusted(_merge_empty(sigma.pairs), WITNESS)


def stabilize(sigma: WitnessTable, ghosted: Iterable[int]) -> WitnessTable:
    """st_S: ghost the set S, which must lie in the active set, and truncate
    the traces at the last layer not swallowed by S and the ghosts.

    Layers after that cut are dropped, and each swallowed process moves from
    W to G at its last kept layer; when every layer is swallowed (the whole
    active set is ghosted) the result is the empty structure on the same
    support.  S is read once, so it may be a one-shot iterator.
    """
    layers, _ = _stabilized(sigma.pairs, _active_subset(sigma, ghosted))
    # the cut layer keeps a witnessed process, so the result is at least stable
    return WitnessTable._trusted(layers, kind_of(layers))


def ghost(sigma: WitnessTable, ghosted: Iterable[int]) -> WitnessTable:
    """Gamma_S = C . st_S, the face operator, for a witness structure sigma
    and an S inside its active set, read once.  Sigma's later W parts are
    nonempty, so only those that st_S empties are merged."""
    if not sigma.is_witness:
        raise PreconditionViolation("ghosting is only defined for witness structures")
    layers, emptied = _stabilized(sigma.pairs, _active_subset(sigma, ghosted))
    return WitnessTable._trusted(_merge_empty(layers) if emptied else layers, WITNESS)


def ghost_one(sigma: WitnessTable, p: int) -> WitnessTable:
    """Ghost one active process: the face of sigma opposite p, equal to
    ``ghost(sigma, (p,))`` with a fast path for ``build``'s traffic.

    When p is not alone in the last W part, st_{p} only moves p to G at its
    last layer l, and C at most merges layer l, if that emptied, into layer
    l+1.  This splice is the measured fast path: it takes 40 564 of the
    57 161 calls that ``build`` makes on ``2,2,2,1``, and sending every call
    through ``_stabilized`` makes the kernel about a third slower.
    Otherwise p alone is witnessed last, so p is active (P1, P3), and the
    face is ``_stabilized`` followed by C when a W part emptied.
    """
    if sigma.classification != WITNESS:
        raise PreconditionViolation("ghosting is only defined for witness structures")
    layers = sigma.pairs
    t = len(layers) - 1
    if layers[t][0] != (p,):
        l = t
        while True:  # down to the last layer that holds p
            w, g = layers[l]
            if p in w:
                break
            if p in g or not l:
                raise _not_active({p})  # a set: an unhashable p raises as in ghost
            l -= 1
        i = w.index(p)
        # w[i : i + 1] keeps the id as stored; ghost layers are pairwise
        # disjoint (P2), so a sort merges them
        w_rest, g = w[:i] + w[i + 1 :], tuple(sorted(g + w[i : i + 1]))
        if w_rest:
            pairs = layers[:l] + ((w_rest, g),) + layers[l + 1 :]
        else:
            # W_l = {p} with l < t, and l >= 1 since W_0 = {p} would make
            # W_t = {p}: C merges G_l into layer l+1
            w1, g1 = layers[l + 1]
            pairs = layers[:l] + ((w1, tuple(sorted(g + g1))),) + layers[l + 2 :]
        return WitnessTable._trusted(pairs, WITNESS)
    layers, emptied = _stabilized(layers, (p,))
    # the cut layer keeps a witnessed process, so C has a layer to merge into
    return WitnessTable._trusted(_merge_empty(layers) if emptied else layers, WITNESS)


# ---------------------------------------------------------------------------
# Simplex membership and the purity completion
# ---------------------------------------------------------------------------


def indexes_simplex(sigma: WitnessTable, r: RoundCounter) -> bool:
    """Whether sigma indexes a simplex of the snapshot complex of r.

    Requires a witness structure on the full support whose trace counts are
    exactly r(p)+1 on active processes and at most that on ghosts.
    """
    if not sigma.is_witness or sigma.supp != r.support:
        return False
    ghosts = sigma.ghost_set
    for p, ix in sigma.traces.items():
        if len(ix) > r[p] + 1 or (p not in ghosts and len(ix) != r[p] + 1):
            return False
    return True


def complete(sigma: WitnessTable, r: RoundCounter) -> WitnessTable:
    """Extend a simplex of the complex of r to a top simplex it is a face of.

    Every ghost p still owes m(p) = r(p)+1 - M(p) occurrences; appending the
    nested layers V_i = {p : m(p) >= i} realizes them, and ghosting the ghost
    set back recovers sigma.
    """
    if not indexes_simplex(sigma, r):
        raise PreconditionViolation("complete() needs a simplex of the complex of r")
    traces = sigma.traces
    owed = {p: r[p] + 1 - len(traces[p]) for p in sigma.ghost_set}
    rounds = max(owed.values(), default=0)
    pairs = [(tuple(sorted(sigma.supp)), ())]
    pairs += [(tuple(sorted(sigma.r_set(i))), ()) for i in range(1, sigma.t + 1)]
    for i in range(1, rounds + 1):
        pairs.append((tuple(sorted(p for p, m in owed.items() if m >= i)), ()))
    return WitnessTable(pairs)
