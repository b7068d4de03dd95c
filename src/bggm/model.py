"""Domain types: datasets, hyperparameters, prior-network elicitation and
MCMC chain state, with validation and default construction.

Class labels are coded as integers throughout: 1 and 2 for the two
classes, 0 for unknown. Hyperparameter and state arrays carry a leading
axis of length 2 indexed 0/1 for class 1/class 2.
"""

import io as _io
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, ValidationError
from .pdcore import hadamard_correlation, is_positive_definite

UNKNOWN = 0
CLASS1 = 1
CLASS2 = 2

EVIDENCE_IMPORTANT = "important"
EVIDENCE_UNIMPORTANT = "unimportant"
EVIDENCE_NONE = "none"

SCOPE_CLASS1 = "class1"
SCOPE_CLASS2 = "class2"
SCOPE_BOTH = "both"

# Beta(a, b) settings for elicited edges: mean 10/12 for edges flagged as
# important, 2/12 for edges flagged as unimportant, 1/2 otherwise.
_ELICIT_AB = {
    EVIDENCE_IMPORTANT: (10.0, 2.0),
    EVIDENCE_UNIMPORTANT: (2.0, 10.0),
    EVIDENCE_NONE: (2.0, 2.0),
}


@dataclass(frozen=True)
class Dataset:
    """Expression matrix with per-row class labels.

    y:       (n, p) float matrix, rows = samples, columns = proteins
    labels:  (n,) ints in {0 unknown, 1, 2}
    names:   p protein identifiers
    """

    y: np.ndarray
    labels: np.ndarray
    names: tuple

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        names = tuple(str(n) for n in self.names)
        if y.ndim != 2:
            raise InputError("y must be a 2-d matrix")
        n, p = y.shape
        if p < 2:
            raise InputError("need at least 2 proteins")
        # n == 0 is allowed so prior-only chains can run; any real fit
        # requires labeled samples (checked by the sampler's init).
        if n == 1:
            raise InputError("need at least 2 samples (or none for prior studies)")
        if not np.all(np.isfinite(y)):
            raise InputError("y contains non-finite entries")
        if labels.shape != (n,):
            raise InputError("labels length must match number of rows")
        if not np.all(np.isin(labels, [UNKNOWN, CLASS1, CLASS2])):
            raise InputError("labels must be 0 (unknown), 1 or 2")
        if len(names) != p:
            raise InputError("names length must match number of columns")
        if len(set(names)) != p:
            raise InputError("protein names must be unique")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "names", names)

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def p(self):
        return self.y.shape[1]

    def class_rows(self, cls):
        return np.where(self.labels == cls)[0]

    @property
    def unknown_rows(self):
        return np.where(self.labels == UNKNOWN)[0]

    def require_labeled(self, min_per_class=1):
        for cls in (CLASS1, CLASS2):
            if len(self.class_rows(cls)) < min_per_class:
                raise ValidationError(
                    f"need at least {min_per_class} labeled samples in class {cls}"
                )


def empty_dataset(p, names=None):
    """Dataset with no rows, used to sample from the prior."""
    names = names if names is not None else [f"V{i + 1}" for i in range(p)]
    return Dataset(np.zeros((0, p)), np.zeros(0, dtype=int), tuple(names))


@dataclass(frozen=True)
class Hyperparameters:
    """All fixed prior parameters of the hierarchical model.

    edge_a/edge_b: (2, p, p) Beta parameters of the per-class edge
        inclusion probability q.
    diff_e/diff_f: (p, p) Beta parameters of the differential-edge
        probability pi (shared between classes).
    s_shape/s_scale: inverse-gamma prior on the diagonal scales, density
        proportional to x^-(shape+1) exp(-scale/x).
    label_eta/label_zeta: Beta prior on each unknown sample's class-1
        probability.
    mu0: (2, p) prior means; b0: (2, p, p) PD prior precisions of mu.
    """

    edge_a: np.ndarray
    edge_b: np.ndarray
    diff_e: np.ndarray
    diff_f: np.ndarray
    s_shape: float
    s_scale: float
    label_eta: float
    label_zeta: float
    mu0: np.ndarray
    b0: np.ndarray

    def __post_init__(self):
        edge_a = np.asarray(self.edge_a, dtype=float)
        edge_b = np.asarray(self.edge_b, dtype=float)
        diff_e = np.asarray(self.diff_e, dtype=float)
        diff_f = np.asarray(self.diff_f, dtype=float)
        mu0 = np.asarray(self.mu0, dtype=float)
        b0 = np.asarray(self.b0, dtype=float)
        p = diff_e.shape[0]
        if edge_a.shape != (2, p, p) or edge_b.shape != (2, p, p):
            raise InputError("edge_a/edge_b must have shape (2, p, p)")
        if diff_e.shape != (p, p) or diff_f.shape != (p, p):
            raise InputError("diff_e/diff_f must have shape (p, p)")
        for arr, label in ((edge_a, "edge_a"), (edge_b, "edge_b"),
                           (diff_e, "diff_e"), (diff_f, "diff_f")):
            if not np.all(arr > 0):
                raise InputError(f"{label} must be strictly positive")
        for val, label in ((self.s_shape, "s_shape"), (self.s_scale, "s_scale"),
                           (self.label_eta, "label_eta"), (self.label_zeta, "label_zeta")):
            if not (np.isfinite(val) and val > 0):
                raise InputError(f"{label} must be a positive real")
        if mu0.shape != (2, p):
            raise InputError("mu0 must have shape (2, p)")
        if b0.shape != (2, p, p):
            raise InputError("b0 must have shape (2, p, p)")
        for k in range(2):
            if not is_positive_definite(b0[k]):
                raise InputError("b0 must be positive definite for both classes")
        object.__setattr__(self, "edge_a", edge_a)
        object.__setattr__(self, "edge_b", edge_b)
        object.__setattr__(self, "diff_e", diff_e)
        object.__setattr__(self, "diff_f", diff_f)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "b0", b0)

    @property
    def p(self):
        return self.diff_e.shape[0]


def default_hyperparameters(p):
    """Vague defaults: Beta(2, 2) on every edge and differential indicator,
    inverse-gamma(1, 1) on the scales, Beta(2, 2) on unknown-label
    probabilities, zero prior means with precision 1e-2 I."""
    if p < 2:
        raise InputError("p must be at least 2")
    ones = np.ones((p, p))
    return Hyperparameters(
        edge_a=2.0 * np.ones((2, p, p)),
        edge_b=2.0 * np.ones((2, p, p)),
        diff_e=2.0 * ones,
        diff_f=2.0 * ones,
        s_shape=1.0,
        s_scale=1.0,
        label_eta=2.0,
        label_zeta=2.0,
        mu0=np.zeros((2, p)),
        b0=np.broadcast_to(1e-2 * np.eye(p), (2, p, p)).copy(),
    )


def center_mean_prior(h, dataset):
    """Replace mu0 with the labeled per-class sample means.

    Weakly informative empirical centering; avoids prior-data conflict on
    arbitrary measurement scales. Classes without labeled samples keep
    their existing mu0.
    """
    mu0 = h.mu0.copy()
    for k, cls in enumerate((CLASS1, CLASS2)):
        rows = dataset.class_rows(cls)
        if len(rows):
            mu0[k] = dataset.y[rows].mean(axis=0)
    return replace(h, mu0=mu0)


@dataclass(frozen=True)
class PriorNetwork:
    """Per-edge elicitation: (protein_i, protein_j, evidence, scope)."""

    edges: tuple

    def __post_init__(self):
        norm = []
        for entry in self.edges:
            if len(entry) == 3:
                pi_name, pj_name, evidence = entry
                scope = SCOPE_BOTH
            elif len(entry) == 4:
                pi_name, pj_name, evidence, scope = entry
            else:
                raise InputError(f"prior-network edge needs 3 or 4 fields: {entry!r}")
            if evidence not in _ELICIT_AB:
                raise ValidationError(f"unknown evidence tag {evidence!r}")
            if scope not in (SCOPE_CLASS1, SCOPE_CLASS2, SCOPE_BOTH):
                raise ValidationError(f"unknown scope {scope!r}")
            norm.append((str(pi_name), str(pj_name), evidence, scope))
        object.__setattr__(self, "edges", tuple(norm))

    def resolve(self, names):
        """Map protein names to column indices, rejecting self-edges,
        unknown names and duplicate unordered pairs."""
        index = {name: i for i, name in enumerate(names)}
        seen = set()
        resolved = []
        for pi_name, pj_name, evidence, scope in self.edges:
            try:
                i, j = index[pi_name], index[pj_name]
            except KeyError as missing:
                raise ValidationError(f"unknown protein name {missing.args[0]!r}")
            if i == j:
                raise ValidationError(f"self-edge on {pi_name!r}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValidationError(f"duplicate edge {pi_name!r} -- {pj_name!r}")
            seen.add(key)
            resolved.append((key[0], key[1], evidence, scope))
        return resolved


def apply_prior_network(h, net, names):
    """Return hyperparameters with elicited Beta(a, b) settings applied.

    Important edges get (10, 2), unimportant edges (2, 10); the scope
    restricts which class's edge prior is modified (both by default).
    Idempotent, and commutative across disjoint edge sets.
    """
    resolved = net.resolve(names)
    edge_a = h.edge_a.copy()
    edge_b = h.edge_b.copy()
    for i, j, evidence, scope in resolved:
        a_val, b_val = _ELICIT_AB[evidence]
        classes = {SCOPE_CLASS1: (0,), SCOPE_CLASS2: (1,), SCOPE_BOTH: (0, 1)}[scope]
        for k in classes:
            edge_a[k, i, j] = edge_a[k, j, i] = a_val
            edge_b[k, i, j] = edge_b[k, j, i] = b_val
    return replace(h, edge_a=edge_a, edge_b=edge_b)


@dataclass
class ChainState:
    """One MCMC state.

    Per class k in {0, 1}: selection matrix a, correlation-role matrix r,
    scales s, means mu, edge probabilities q. Shared: differential
    indicators lam (= XOR of the two selection matrices), differential
    probabilities pi, per-unknown-sample label probabilities h and
    sampled labels z_u (values 1/2).
    """

    a: np.ndarray    # (2, p, p) int8
    r: np.ndarray    # (2, p, p) float
    s: np.ndarray    # (2, p) float
    mu: np.ndarray   # (2, p) float
    q: np.ndarray    # (2, p, p) float
    lam: np.ndarray  # (p, p) int8
    pi: np.ndarray   # (p, p) float
    h: np.ndarray    # (n_u,) float
    z_u: np.ndarray  # (n_u,) int8

    @property
    def p(self):
        return self.s.shape[1]

    def copy(self):
        return ChainState(
            a=self.a.copy(), r=self.r.copy(), s=self.s.copy(), mu=self.mu.copy(),
            q=self.q.copy(), lam=self.lam.copy(), pi=self.pi.copy(),
            h=self.h.copy(), z_u=self.z_u.copy(),
        )

    def to_bytes(self):
        buf = _io.BytesIO()
        np.savez(buf, a=self.a, r=self.r, s=self.s, mu=self.mu, q=self.q,
                 lam=self.lam, pi=self.pi, h=self.h, z_u=self.z_u)
        return buf.getvalue()

    @staticmethod
    def from_bytes(blob):
        with np.load(_io.BytesIO(blob)) as npz:
            return ChainState(**{key: npz[key] for key in npz.files})


def validate_state(st):
    """Diagnostic check of every ChainState invariant.

    Returns the full list of violation strings; empty means ok.
    """
    bad = []
    p = st.p
    for k in range(2):
        a_k = st.a[k]
        r_k = st.r[k]
        if not np.array_equal(a_k, a_k.T) or not np.all((a_k == 0) | (a_k == 1)):
            bad.append(f"A: class {k + 1} selection matrix not symmetric binary")
        if not np.all(np.diag(a_k) == 1):
            bad.append(f"A-diag: class {k + 1} selection diagonal not all 1")
        if not np.array_equal(r_k, r_k.T):
            bad.append(f"R: class {k + 1} correlation matrix not symmetric")
        if not np.all(np.diag(r_k) == 1.0):
            bad.append(f"R-diag: class {k + 1} correlation diagonal not all 1")
        if np.any(np.abs(r_k) > 1.0):
            bad.append(f"R-range: class {k + 1} entries outside [-1, 1]")
        if not np.all(st.s[k] > 0):
            bad.append(f"S: class {k + 1} scales not strictly positive")
        if not np.all((st.q[k] > 0) & (st.q[k] < 1)):
            bad.append(f"q: class {k + 1} edge probabilities outside (0, 1)")
        if not is_positive_definite(hadamard_correlation(a_k, r_k)):
            bad.append(f"PD: class {k + 1} effective correlation not positive definite")
    xor = (st.a[0] != st.a[1]).astype(np.int8)
    np.fill_diagonal(xor, 0)
    lam = st.lam.copy()
    np.fill_diagonal(lam, 0)
    if not np.array_equal(lam, xor):
        bad.append("lambda-XOR: lam disagrees with XOR of the selection matrices")
    if not np.all((st.pi > 0) & (st.pi < 1)):
        bad.append("pi: differential probabilities outside (0, 1)")
    if st.h.shape != st.z_u.shape:
        bad.append("labels: h and z_u length mismatch")
    if not np.all((st.h > 0) & (st.h < 1)):
        bad.append("h: unknown-label probabilities outside (0, 1)")
    if not np.all(np.isin(st.z_u, [CLASS1, CLASS2])):
        bad.append("z_u: sampled labels must be 1 or 2")
    if not np.all(np.isfinite(st.mu)):
        bad.append("mu: non-finite entries")
    return bad
