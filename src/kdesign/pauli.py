"""Pauli strings, Clifford tableaus, and stabilizer groups.

Conventions, used consistently everywhere downstream:

- qubit j corresponds to bit j of the x and z bitsets and to bit j of a
  computational-basis index (little-endian);
- a PauliString(n, x, z, phase) is the operator i^phase * sigma(x, z), where
  sigma(x, z) := i^|x & z| X^x Z^z is the Hermitian representative
  (so sigma(1, 1) = Y on one qubit);
- the symplectic bit vector of a Pauli is the int x | (z << n), matching
  the x-block-then-z-block layout of kdesign.f2;
- a Clifford is one validated object, CliffordOp, whose generator images
  are PauliStrings; its array form, the tableau, is a tuple of 2n + 1 ints
  (the image bit vectors, then the sign bits);
- CliffordOps are phase-quotiented: only the +/- signs on generator images
  are tracked, never a global phase.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InternalConsistencyError, ValidationError
from .f2 import rref_basis, symplectic_product


@dataclass(frozen=True)
class PauliString:
    """n-qubit Pauli with an i^phase prefactor on the Hermitian representative."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"need at least one qubit, got n={self.n}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask or self.x < 0 or self.z < 0:
            raise ValidationError("x/z bits out of range for n qubits")
        if not 0 <= self.phase < 4:
            raise ValidationError(f"phase exponent must be in 0..3, got {self.phase}")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_label(cls, label: str, sign: int = 1) -> "PauliString":
        """Build from a string like 'XIZY'; label[j] acts on qubit j."""
        x = z = 0
        for j, ch in enumerate(label):
            if ch in "XY":
                x |= 1 << j
            if ch in "ZY":
                z |= 1 << j
            if ch not in "IXYZ":
                raise ValidationError(f"bad Pauli letter {ch!r}")
        return cls(len(label), x, z, 0 if sign == 1 else 2)

    def label(self) -> str:
        out = []
        for j in range(self.n):
            out.append("IXZY"[((self.x >> j) & 1) + 2 * ((self.z >> j) & 1)])
        return "".join(out)

    @property
    def symplectic_vec(self) -> int:
        return self.x | (self.z << self.n)

    @classmethod
    def from_symplectic_vec(cls, v: int, n: int, phase: int = 0) -> "PauliString":
        return cls(n, v & ((1 << n) - 1), v >> n, phase)

    def is_hermitian(self) -> bool:
        return self.phase % 2 == 0

    def sign(self) -> int:
        """+1 or -1 for Hermitian Paulis."""
        if not self.is_hermitian():
            raise ValidationError("sign undefined for non-Hermitian phase")
        return 1 if self.phase == 0 else -1

    def negate(self) -> "PauliString":
        return PauliString(self.n, self.x, self.z, (self.phase + 2) % 4)

    def weight(self) -> int:
        return (self.x | self.z).bit_count()


def pauli_mul(p: PauliString, q: PauliString) -> PauliString:
    """Exact operator product, tracking the power of i."""
    if p.n != q.n:
        raise ValidationError(f"qubit count mismatch: {p.n} vs {q.n}")
    x = p.x ^ q.x
    z = p.z ^ q.z
    w_p = (p.x & p.z).bit_count()
    w_q = (q.x & q.z).bit_count()
    w_pq = (x & z).bit_count()
    cross = (p.z & q.x).bit_count()
    phase = (p.phase + q.phase + w_p + w_q + 2 * cross - w_pq) % 4
    return PauliString(p.n, x, z, phase)


def _pauli_product(ax, az, aph, bx, bz, bph):
    """(x, z, phase) of i^aph sigma(ax, az) times i^bph sigma(bx, bz): the
    phase rule of pauli_mul on integer arrays, which broadcast."""
    cnt = np.bitwise_count
    x, z = ax ^ bx, az ^ bz
    ph = (aph + bph + cnt(ax & az) + cnt(bx & bz) + 2 * cnt(az & bx) - cnt(x & z)) % 4
    return x, z, ph


def chi(p: PauliString, q: PauliString) -> int:
    """+1 when the Paulis commute, -1 when they anticommute."""
    if p.n != q.n:
        raise ValidationError(f"qubit count mismatch: {p.n} vs {q.n}")
    return 1 if symplectic_product(p.symplectic_vec, q.symplectic_vec, p.n) == 0 else -1


# ---------------------------------------------------------------------------
# dense action (used by to_matrix, expectations, stabilizer scans)


# i^k * (+1, -1) for k = 0..3: the factor sigma(x, z) with phase i^k puts on
# an amplitude.  Built as `1j**k * signs`, so dense results are bit-stable.
_FACTORS = np.array([1j**k * np.array([1.0, -1.0]) for k in range(4)])


def _pauli_action(x, z, phase, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(src, fac) with (P v)[r] = fac[r] * v[src[r]] for P = i^phase sigma(x, z).

    x, z and phase may be integer arrays; they broadcast against rows.
    """
    src = rows ^ x
    k = (phase + np.bitwise_count(x & z)) % 4
    return src, _FACTORS[k, np.bitwise_count(src & z) & 1]


def apply_pauli(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """P |vec> for a dense state of length 2^n."""
    d = 1 << p.n
    if vec.shape != (d,):
        raise ValidationError(f"state length {vec.shape} does not match n={p.n}")
    src, fac = _pauli_action(p.x, p.z, p.phase, np.arange(d))
    return fac * vec[src]


def pauli_matrix(p: PauliString) -> np.ndarray:
    d = 1 << p.n
    m = np.zeros((d, d), dtype=complex)
    rows = np.arange(d)
    src, fac = _pauli_action(p.x, p.z, p.phase, rows)
    m[rows, src] = fac
    return m


# ---------------------------------------------------------------------------
# Clifford tableaus


@dataclass(frozen=True)
class CliffordOp:
    """Phase-quotiented Clifford, stored as signed generator images.

    x_images[j] and z_images[j] are the conjugation images of X_j and Z_j;
    both are Hermitian Paulis (phase 0 or 2).  The induced map on symplectic
    bit vectors must preserve the form, which the constructor verifies.
    """

    n: int
    x_images: tuple[PauliString, ...]
    z_images: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        if len(self.x_images) != self.n or len(self.z_images) != self.n:
            raise ValidationError("need exactly n images for X and Z generators")
        gens = self.x_images + self.z_images
        for g in gens:
            if g.n != self.n:
                raise ValidationError("image qubit count mismatch")
            if not g.is_hermitian():
                raise ValidationError("generator images must carry sign +/-1 only")
        # S^T J S = J: images inherit the generators' commutation table.
        for a, ga in enumerate(gens):
            for b in range(a + 1, 2 * self.n):
                gb = gens[b]
                got = ((ga.x & gb.z) ^ (ga.z & gb.x)).bit_count() & 1
                if got != (b == a + self.n):
                    raise ValidationError("images do not satisfy the symplectic condition")

    @classmethod
    def identity(cls, n: int) -> "CliffordOp":
        xs = tuple(PauliString(n, 1 << j, 0, 0) for j in range(n))
        zs = tuple(PauliString(n, 0, 1 << j, 0) for j in range(n))
        return cls(n, xs, zs)

    @classmethod
    def from_tableau(cls, n: int, tableau) -> "CliffordOp":
        """Inverse of `tableau`: 2n image bit vectors, then the sign bits."""
        if len(tableau) != 2 * n + 1:
            raise ValidationError(f"a tableau on n={n} qubits has {2 * n + 1} entries")
        mask = (1 << n) - 1
        signs = tableau[-1]
        imgs = [
            PauliString(n, v & mask, v >> n, 2 * ((signs >> j) & 1))
            for j, v in enumerate(tableau[:-1])
        ]
        return cls(n, tuple(imgs[:n]), tuple(imgs[n:]))

    @property
    def tableau(self) -> tuple[int, ...]:
        """The array form: images of X_1..X_n, Z_1..Z_n as x | z << n bit
        vectors, then the sign bits (bit j set when image j carries -1)."""
        gens = self.x_images + self.z_images
        signs = sum((g.phase >> 1) << j for j, g in enumerate(gens))
        return (*(g.x | (g.z << self.n) for g in gens), signs)


def clifford_conjugate(c: CliffordOp, p: PauliString) -> PauliString:
    """C P C^dagger via the tableau, with exact sign tracking."""
    if p.n != c.n:
        raise ValidationError(f"qubit count mismatch: {p.n} vs {c.n}")
    w = (p.x & p.z).bit_count()
    acc = PauliString(c.n, 0, 0, (p.phase + w) % 4)
    for j in range(c.n):
        if (p.x >> j) & 1:
            acc = pauli_mul(acc, c.x_images[j])
    for j in range(c.n):
        if (p.z >> j) & 1:
            acc = pauli_mul(acc, c.z_images[j])
    if p.is_hermitian() and not acc.is_hermitian():
        raise InternalConsistencyError("conjugation broke Hermiticity")
    return acc


def clifford_compose(c2: CliffordOp, c1: CliffordOp) -> CliffordOp:
    """The Clifford acting as first c1, then c2 (operator product C2 C1)."""
    if c1.n != c2.n:
        raise ValidationError("qubit count mismatch")
    xs = tuple(clifford_conjugate(c2, g) for g in c1.x_images)
    zs = tuple(clifford_conjugate(c2, g) for g in c1.z_images)
    return CliffordOp(c1.n, xs, zs)


def clifford_inverse(c: CliffordOp) -> CliffordOp:
    """Tableau inverse: symplectic part J S^T J, signs fixed by round-tripping.

    With ' swapping the x and z halves, bit i of inverse image j is bit j' of
    image i'.
    """
    n, nn = c.n, 2 * c.n
    tab = c.tableau
    images = [
        sum(((tab[(i + n) % nn] >> ((j + n) % nn)) & 1) << i for i in range(nn))
        for j in range(nn)
    ]
    # Set each image sign so that C(C^-1 g C) C^dagger == g exactly.
    signs = 0
    for j, img in enumerate(images):
        back = clifford_conjugate(c, PauliString.from_symplectic_vec(img, n))
        if back.symplectic_vec != 1 << j:
            raise InternalConsistencyError("symplectic inverse failed to round-trip")
        signs |= (back.phase >> 1) << j
    return CliffordOp.from_tableau(n, (*images, signs))


# ---------------------------------------------------------------------------
# uniform sampling (transvection construction, directsum layout internally)


def _ds_partner(h: int, nn: int) -> int:
    """h with each (2i, 2i+1) pair swapped: v . partner(h) = <v, h> (mod 2)."""
    even = ((1 << nn) - 1) // 3
    return ((h & even) << 1) | ((h >> 1) & even)


def _sp_ds(u: int, v: int, nn: int) -> int:
    """Symplectic product in the (2i, 2i+1)-paired layout."""
    return (u & _ds_partner(v, nn)).bit_count() & 1


def _transvect(h: int, vs: list[int], nn: int) -> list[int]:
    """Z_h(v) = v + <v,h> h for each v in vs."""
    if not h:
        return vs
    hp = _ds_partner(h, nn)
    return [v ^ h if (v & hp).bit_count() & 1 else v for v in vs]


def _anticommuting_pair_value(a: int) -> int:
    """A 2-bit local value with odd symplectic pairing against local value a."""
    if a == 0:
        raise InternalConsistencyError("no local value anticommutes with identity")
    return 3 if a in (1, 2) else 1


def _find_transvections(x: int, y: int, nn: int) -> tuple[int, int]:
    """h0, h1 with y = Z_h1 Z_h0 x, for nonzero x and y.

    Uses that two distinct nonzero local pair values always anticommute, so a
    single-pair bridge works whenever x and y share support; otherwise bridge
    through one supported pair of each.
    """
    if x == y:
        return 0, 0
    if _sp_ds(x, y, nn) == 1:
        return x ^ y, 0

    def pair(v: int, i: int) -> int:
        return (v >> (2 * i)) & 3

    for i in range(nn // 2):
        a, b = pair(x, i), pair(y, i)
        if a and b:
            zz = (a ^ b) or _anticommuting_pair_value(a)
            z = zz << (2 * i)
            return x ^ z, y ^ z
    z = 0
    for i in range(nn // 2):
        a, b = pair(x, i), pair(y, i)
        if a and not b:
            z |= _anticommuting_pair_value(a) << (2 * i)
            break
    for i in range(nn // 2):
        a, b = pair(x, i), pair(y, i)
        if b and not a:
            z |= _anticommuting_pair_value(b) << (2 * i)
            break
    return x ^ z, y ^ z


def _random_symplectic_ds(n: int, rng: np.random.Generator) -> list[int]:
    """Uniformly random element of Sp(2n, F_2), rows in directsum layout.

    Row-by-row: pick the image of the first basis vector uniformly among
    nonzero vectors, complete it to a symplectic pair uniformly among the
    2^(2n-1) partners, then recurse on the complement via transvections.
    All levels draw first, outermost first; the rows are then built from
    the innermost level out.
    """
    draws = []
    for m in range(n, 0, -1):
        nn = 2 * m
        f1 = int(rng.integers(1, 1 << nn))
        draws.append((nn, f1, rng.integers(0, 2, size=nn - 1).tolist()))
    rows: list[int] = []
    for nn, f1, bits in reversed(draws):
        t0, t1 = _find_transvections(1, f1, nn)
        eprime = 1
        for j in range(2, nn):
            eprime |= bits[j - 1] << j
        (h0,) = _transvect(t1, _transvect(t0, [eprime], nn), nn)
        if bits[0]:
            f1 = 0
        rows = [1, 2] + [r << 2 for r in rows]
        for h in (t0, t1, h0, f1):
            rows = _transvect(h, rows, nn)
    return rows


def random_tableau(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Exactly uniform Clifford in the array form of `CliffordOp.tableau`.

    Uniform symplectic part, then uniform signs.  The transvection
    construction is symplectic by construction, so nothing is validated.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    nn = 2 * n
    # directsum position 2q -> x_q (= q), 2q+1 -> z_q (= n+q)
    std = [i // 2 + (i & 1) * n for i in range(nn)]
    images = [0] * nn
    # image j is column j of the row matrix, both indices in the x|z layout
    for i, r in enumerate(_random_symplectic_ds(n, rng)):
        for j in range(nn):
            if (r >> j) & 1:
                images[std[j]] |= 1 << std[i]
    return (*images, int(rng.integers(0, 1 << nn)))


def random_clifford(n: int, rng: np.random.Generator) -> CliffordOp:
    """Exactly uniform Clifford, as a validated CliffordOp."""
    return CliffordOp.from_tableau(n, random_tableau(n, rng))


# ---------------------------------------------------------------------------
# exhaustive enumeration (small n; independent of the sampler)

MAX_ENUMERATED_QUBITS = 2


@lru_cache(maxsize=None)
def enumerate_symplectics(n: int) -> tuple[tuple[int, ...], ...]:
    """All of Sp(2n, F_2) by brute scan, each as its 2n image bit vectors;
    n <= MAX_ENUMERATED_QUBITS only."""
    if n > MAX_ENUMERATED_QUBITS:
        raise ValidationError(
            f"exhaustive symplectic enumeration is limited to n <= {MAX_ENUMERATED_QUBITS}"
        )
    nn = 2 * n
    out = []
    for bits in range(1 << (nn * nn)):
        cols = tuple((bits >> (nn * j)) & ((1 << nn) - 1) for j in range(nn))
        if all(
            symplectic_product(cols[a], cols[b], n) == (b == a + n)
            for a in range(nn)
            for b in range(a, nn)
        ):
            out.append(cols)
    return tuple(out)


def enumerate_cliffords(n: int) -> list[CliffordOp]:
    """The full phase-quotiented Clifford group; n <= 2 (24 and 11520 elements)."""
    return [
        CliffordOp.from_tableau(n, (*s, sgn))
        for s in enumerate_symplectics(n)
        for sgn in range(1 << (2 * n))
    ]


# ---------------------------------------------------------------------------
# dense conversion


# The largest register held as dense amplitudes or matrices, here and in dense.
MAX_DENSE_QUBITS = 12


def cliffords_to_matrices(n: int, tableaus) -> np.ndarray:
    """Dense unitaries realizing a batch of tableaus, as an (m, 2^n, 2^n) array.

    tableaus is a sequence of `CliffordOp.tableau` forms, or an (m, 2n + 1)
    integer array.  Column 0 of each unitary is the stabilizer state of the
    Z images, the projection of the first basis state it overlaps, with its
    largest amplitude made real positive (the global phase).  Column x is
    P_x column 0, where P_x is the product of the X images of x's bits,
    built for all x by doubling over the bits.
    """
    if n > MAX_DENSE_QUBITS:
        raise ValidationError(
            f"dense conversion limited to n <= {MAX_DENSE_QUBITS}, got n={n}"
        )
    tab = np.asarray(tableaus, dtype=np.int64).reshape(-1, 2 * n + 1)
    m, d = len(tab), 1 << n
    xs, zs = tab[:, : 2 * n] & (d - 1), tab[:, : 2 * n] >> n
    phases = 2 * ((tab[:, 2 * n :] >> np.arange(2 * n)) & 1)
    rows = np.arange(d)

    zsrc, zfac = _pauli_action(
        xs[:, n:, None], zs[:, n:, None], phases[:, n:, None], rows
    )
    psi = np.empty((m, d), dtype=complex)
    todo = np.arange(m)
    for start in range(d):
        cand = np.zeros((len(todo), d), dtype=complex)
        cand[:, start] = 1.0
        for j in range(n):
            gathered = np.take_along_axis(cand, zsrc[todo, j], axis=1)
            cand = 0.5 * (cand + zfac[todo, j] * gathered)
        nrm = np.linalg.norm(cand, axis=1)
        hit = nrm > 1e-9
        psi[todo[hit]] = cand[hit] / nrm[hit, None]
        todo = todo[~hit]
        if not len(todo):
            break
    else:
        raise InternalConsistencyError("stabilizer projector annihilated every basis state")
    # pin the global phase: largest amplitude made real positive
    top = np.take_along_axis(psi, np.argmax(np.abs(psi), axis=1)[:, None], axis=1)
    psi = psi * (np.abs(top) / top)

    # X-image products P_x: P_{x + 2^j} = P_x X_j for x < 2^j
    px, pz, pph = (np.zeros((m, d), dtype=np.int64) for _ in range(3))
    for j in range(n):
        h = 1 << j
        px[:, h : 2 * h], pz[:, h : 2 * h], pph[:, h : 2 * h] = _pauli_product(
            px[:, :h], pz[:, :h], pph[:, :h], xs[:, j, None], zs[:, j, None], phases[:, j, None]
        )
    src, fac = _pauli_action(
        px[:, None, :], pz[:, None, :], pph[:, None, :], rows[:, None]
    )
    u = fac * np.take_along_axis(psi[:, None, :], src, axis=2)
    u[:, :, 0] = psi
    return u


def clifford_to_matrix(c: CliffordOp) -> np.ndarray:
    """Dense 2^n x 2^n unitary realizing the tableau, deterministic global phase."""
    return cliffords_to_matrices(c.n, [c.tableau])[0]


# ---------------------------------------------------------------------------
# stabilizer groups


@dataclass(frozen=True)
class StabilizerGroup:
    """Abelian Pauli subgroup of order 2^(n-t) stabilizing some state.

    Generators are signed so each has expectation +1 on that state; they are
    the canonical RREF basis of the group's symplectic span.
    """

    n: int
    t: int
    generators: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        if len(self.generators) != self.n - self.t:
            raise ValidationError(
                f"expected {self.n - self.t} generators, got {len(self.generators)}"
            )
        if any(g.n != self.n for g in self.generators):
            raise ValidationError(f"stabilizer generators must act on {self.n} qubits")
        for a, b in itertools.combinations(self.generators, 2):
            if chi(a, b) != 1:
                raise ValidationError("stabilizer generators must commute")

    @property
    def order(self) -> int:
        return 1 << (self.n - self.t)

    def elements(self):
        """All 2^(n-t) signed elements, identity included."""
        m = len(self.generators)
        for mask in range(1 << m):
            acc = PauliString.identity(self.n)
            for j in range(m):
                if (mask >> j) & 1:
                    acc = pauli_mul(acc, self.generators[j])
            yield acc


def _fwht(v: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of the last axis, unnormalized; its length
    is a power of two."""
    v = v.copy()
    h = 1
    while h < v.shape[-1]:
        w = v.reshape(*v.shape[:-1], -1, 2, h)
        lo, hi = w[..., 0, :], w[..., 1, :]
        a = lo.copy()
        lo += hi
        np.subtract(a, hi, out=hi)
        h *= 2
    return v


# i^k for k = 0..3, as `1j ** k` gives them
_I_POWERS = 1j ** np.arange(4)


def _pauli_table(left: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Entry [a, b] is sum_x left[x ^ a] <x ^ a| sigma(a, b) |x> amps[x].

    That is i^|a & b| FWHT_b(left[x ^ a] amps[x]), computed for every row a
    at once as a complex (2^n, 2^n) array.  left = conj(amps) gives the
    Pauli expectations, left = amps the transpose amplitudes of the Bell
    basis.
    """
    idx = np.arange(len(amps))
    f = _fwht(left[idx[:, None] ^ idx] * amps)
    return _I_POWERS[np.bitwise_count(idx[:, None] & idx) % 4] * f


def pauli_expectations_all(amps: np.ndarray, n: int) -> np.ndarray:
    """<psi| sigma(a,b) |psi> for every (a,b), as a (2^n, 2^n) real array.

    Entry [a, b] is the expectation of sigma(a, b); cost O(4^n log 2^n).
    """
    d = 1 << n
    if amps.shape != (d,):
        raise ValidationError("amplitude count does not match n")
    vals = _pauli_table(np.conj(amps), amps)
    if np.max(np.abs(vals.imag)) > 1e-7:
        raise InternalConsistencyError("Pauli expectation came out non-real")
    return vals.real.copy()


def _qubit_count(amps: np.ndarray) -> int:
    """n for a state of 2^n amplitudes; ValidationError for any other length."""
    d = len(amps)
    if d < 1 or d & (d - 1):
        raise ValidationError(f"amplitude count {d} is not a power of two")
    return d.bit_length() - 1


# The largest register whose 4^n Paulis stabilizer_group_of scans, and so the
# largest register of the attack pipeline built on it.
MAX_SCAN_QUBITS = 8


def stabilizer_group_of(psi, t: int) -> StabilizerGroup:
    """Scan all 4^n Paulis for expectation +/-1 (tolerance 1e-9) on psi.

    psi may be a dense amplitude array or anything with an .amplitudes array.
    Raises ValidationError when the matches do not form a closed group of
    order 2^(n-t).
    """
    amps = np.asarray(getattr(psi, "amplitudes", psi), dtype=complex)
    n = _qubit_count(amps)
    if n > MAX_SCAN_QUBITS:
        raise ValidationError(f"stabilizer scan limited to n <= {MAX_SCAN_QUBITS}")
    if not 0 <= t <= n:
        raise ValidationError(f"need 0 <= t <= n, got t={t}")

    exps = pauli_expectations_all(amps, n)
    xs, zs = np.nonzero(np.abs(np.abs(exps) - 1.0) <= 1e-9)

    expected = 1 << (n - t)
    if len(xs) != expected:
        raise ValidationError(
            f"found {len(xs)} stabilizing Paulis, expected {expected} for t={t}"
        )
    vecs = sorted((xs | (zs << n)).tolist())
    basis = rref_basis([v for v in vecs if v], 2 * n)
    # a subset of its own span is the span (hence a group) iff the sizes agree
    if (1 << len(basis)) != len(vecs):
        raise ValidationError("stabilizing Paulis are not closed under products")
    gens = []
    for v in basis:
        p = PauliString.from_symplectic_vec(v, n)
        e = exps[p.x, p.z]
        gens.append(p if e > 0 else p.negate())
    return StabilizerGroup(n, t, tuple(gens))
