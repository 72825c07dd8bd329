"""Call budgets: which solvers each public entry point calls on a fixed input,
which routines it must not call, and how much memory it holds (BUDGET).

The harness wraps numpy's dense solvers and ``np.kron``, and the krauslab
routines whose calls mark a path (WATCHED).  It records each call by a key
such as ``eigh c12x12 <_eigenbasis``: the routine, the dtype kind and shape
of its first array argument (after ``self``; a list of equal arrays reads as
a stack), its bool and str keyword flags, and after ``<`` the innermost
watched routine it runs in.  A row of BUDGET is keyed by an entry point and
an input; ``setup`` builds the input outside the record, and ``run`` (by
default the entry point, a dotted name under ``krauslab``) runs on it.  A
row checks:

* ``calls``: key patterns (``fnmatch``) with their exact counts; each call
  of a routine that the patterns name matches exactly one of them;
* ``never``: routines that must not run;
* ``peak``: a bound on the tracemalloc peak of the run, and ``live``: a
  bound on the bytes live at each call of a routine.

With ``each``, ``calls`` holds for every part of the record that starts at
an entry into that routine.  A change that moves a core path edits its rows,
so the diff of this table shows what moved.  This is the only test file
that replaces numpy functions.
"""

import contextlib
import functools
import tracemalloc
import weakref
from collections import Counter
from fnmatch import fnmatchcase
from typing import Callable, NamedTuple

import numpy as np
import pytest

import krauslab as kl
from krauslab import channel, cli, commuting, cuntz, opcore
from krauslab.ensembles import ginibre, intertwining_pair, mixed_unitary_family, random_psd_coefficients, trial_rng
from test_channel import DEMO_DATA, blind_solve, connected_real_family, defect_solve, family_queries, luders_split
from test_commuting import fresh_pairs, nearly_hermitian_coefficients, sylvester_free_pairs, ungated_pairs
from test_opcore import _family, commutant_family, commuting_pair_on_c3, hermitian_families, tall_families

WATCHED = [
    *((np.linalg, name) for name in ("svd", "eig", "eigh", "eigvalsh", "eigvals", "qr", "solve")),
    (np, "kron"),
    *((opcore, name) for name in ("kron_entries", "kron_sum", "factorize", "minus_identity", "sylvester_null_space")),
    (opcore.SpectralCore, "solve"),
    *((commuting, name) for name in ("_kron_eigenbasis", "_refine", "_eigenbasis")),
    *((commuting, name) for name in ("product_map_check", "positive_eigenvalue_check")),
    (commuting.CommutingFamily, "_diagonalized"),
    (cuntz, "build_isometries"),
]


# the name a key gives each watched routine: a method's is qualified by its class
ROUTINES = [f"{owner.__name__}.{name}" if isinstance(owner, type) else name for owner, name in WATCHED]


class Call(NamedTuple):
    key: str
    routine: str
    live: int  # tracemalloc's traced bytes at the call, 0 when not tracing
    arg: object  # a weak reference to the first array argument, or None


def _shape(x) -> str:
    if type(x) in (list, tuple) and x and all(isinstance(m, np.ndarray) for m in x):
        return x[0].dtype.kind + "x".join(map(str, (len(x), *x[0].shape)))
    return x.dtype.kind + "x".join(map(str, x.shape)) if isinstance(x, np.ndarray) else ""


@contextlib.contextmanager
def recording():
    """Every WATCHED call made inside the block, in order, as a list of Call."""
    calls, inside = [], []

    def watched(routine, fn, method):
        def wrapper(*args, **kwargs):
            first = args[int(method)] if len(args) > method else None
            flags = "".join(f" {k}={v}" for k, v in sorted(kwargs.items()) if isinstance(v, (bool, str)))
            key = " ".join(filter(None, (routine, _shape(first)))) + flags + (f" <{inside[-1]}" if inside else "")
            live = tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else 0
            calls.append(Call(key, routine, live, weakref.ref(first) if isinstance(first, np.ndarray) else None))
            inside.append(routine)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for (owner, name), routine in zip(WATCHED, ROUTINES):
            mp.setattr(owner, name, watched(routine, getattr(owner, name), isinstance(owner, type)))
        yield calls


class Budget(NamedTuple):
    setup: Callable  # -> the arguments of run, built outside the record
    calls: dict = {}
    never: str = ""
    peak: int | None = None
    live: dict = {}
    each: str | None = None
    run: Callable | None = None  # by default the entry point the row's key names


def check(entry: str, row: Budget) -> None:
    args = row.setup()
    tracing = row.peak is not None or bool(row.live)
    with recording() as calls:
        if tracing:
            tracemalloc.start()
        try:
            # the entry point is looked up inside the record, so its own call is seen
            (row.run or functools.reduce(getattr, entry.split("."), kl))(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    named = {pattern.split()[0].rstrip("*") for pattern in row.calls}
    assert named | set(row.never.split()) | set(row.live) | {row.each} - {None} <= set(ROUTINES)
    starts = [i for i, c in enumerate(calls) if c.routine == row.each] if row.each else [0]
    assert starts, f"{row.each} never ran"
    for part in (calls[i:j] for i, j in zip(starts, starts[1:] + [len(calls)])):
        seen = [c.key for c in part if c.routine in named]
        assert [k for k in seen if sum(fnmatchcase(k, p) for p in row.calls) != 1] == []
        assert {p: sum(fnmatchcase(k, p) for k in seen) for p in row.calls} == row.calls
    assert [c.key for c in calls if c.routine in row.never.split()] == []
    if row.peak is not None:
        assert peak < row.peak
    for routine, bound in row.live.items():
        assert max(c.live for c in calls if c.routine == routine) < bound


def _cli(command, **flags):
    return lambda: cli.run(cli.RunConfig(command=command, **flags))


def _pairs_checked(pairs, twice=False):
    for a, b in pairs:
        commuting.product_map_check(a, b)
        if twice:
            commuting.product_map_check(a.mats, b.mats)


def _refused(pairs):
    for c, d in pairs:
        with pytest.raises(ValueError, match="commuting-normal gates"):
            commuting.product_map_check(c, d)


def _psd_pair(rng, d, m, part=lambda p: p):
    return [[part(p) for p in random_psd_coefficients(rng, d, m)] for _ in range(2)]


def _chunked(lefts, rights):
    """Factors whose Kronecker sum spans more than four _KRON_CHUNK row chunks."""
    assert (len(lefts[0]) * len(rights[0])) ** 2 > 4 * opcore._KRON_CHUNK
    return lefts, rights


def _ginibres(rng, d):
    return [ginibre(rng, d) for _ in range(3)]


def _known_fixed_space(fam):
    kl.fixed_space(fam)
    return (fam,)


# the held stacks of the Lüders family's S - I, by dtype kind and shape
LUDERS16 = Counter("f1x6x6 f1x6x6 f1x16x16 f1x18x18 f1x20x20 f2x2x2 f2x2x2 f2x8x8 f4x3x3 f4x4x4 f32x1x1".split())
LUDERS48 = Counter(
    "f1x6x6 f1x14x14 f1x16x16 f1x16x16 f1x17x17 f1x20x20 f1x22x22 f1x31x31 f1x36x36 f1x36x36 f1x46x46 f1x58x58"
    " f1x64x64 f1x88x88 f2x10x10 f2x11x11 f2x12x12 f2x21x21 f3x5x5 f3x6x6 f3x9x9 f4x7x7 f5x8x8 f6x2x2 f24x2x2"
    " f26x4x4 f32x3x3 f288x1x1".split()
)
THETA12 = 144 * 144 * 16  # bytes of a complex 144 x 144 theta
SOLVE = " <SpectralCore.solve"

BUDGET = {
    # S - I: one real eigvalsh per held stack; of the Lüders family's 819
    # blocks at n = 48 the defect of diag(t) reaches 11, a blind walk all
    ("opcore.factorize", "luders n=48, swap-paired"): Budget(
        lambda: luders_split(48)[:1], {f"eigvalsh {s} <factorize": k for s, k in LUDERS48.items()}
    ),
    ("SpectralCore.solve", "luders n=48, b the defect of diag(t)"): Budget(
        lambda: defect_solve(48),
        {"eigh f1x64x64" + SOLVE: 1} | {f"solve {s}{SOLVE}": 1 for s in "f1x16x16 f1x36x36 f1x58x58 f3x6x6 f4x2x2".split()},
    ),
    ("SpectralCore.solve", "luders n=48, every held block walked"): Budget(
        lambda: defect_solve(48),
        {"eigh f1x64x64" + SOLVE: 1} | {f"solve {s}{SOLVE}": k for s, k in (LUDERS48 - Counter(["f1x64x64"])).items()},
        run=blind_solve,
    ),
    # no complex S (16 n^2 bytes) is live while the real blocks are solved
    ("channel.spectral_core", "luders n=16"): Budget(
        lambda: (cuntz.luders_family(16),),
        {f"eigvalsh {s} <factorize": k for s, k in LUDERS16.items()},
        live={"eigvalsh": 8 * 256**2},
    ),
    ("channel.spectral_core", "real symmetric, connected, d=12"): Budget(
        lambda: (connected_real_family(),), {"eigvalsh f1x144x144 <factorize": 1}, live={"eigvalsh": 10 * 144**2}
    ),
    # the four queries build and factorize S - I once
    ("family queries", "mixed unitary d=4 m=3"): Budget(
        lambda: (mixed_unitary_family(trial_rng(21, 7), 4, 3),),
        {"kron_entries*": 1, "factorize*": 1, "svd c1x16x16 full_matrices=False <factorize": 1, "svd c4x4 *": 3},
        run=family_queries,
    ),
    ("family queries", "diag(0.5, 0.6, 0.75)"): Budget(
        lambda: (kl.KrausFamily([np.diag([0.5, 0.6, 0.75])]),),
        {"kron_entries*": 1, "factorize*": 1, "svd c3x3 compute_uv=False": 1},
        run=family_queries,
    ),
    # the real S_h - I (8 n^2 bytes) is the one matrix live in the one SVD,
    # and while it is built from S (16 n^2 bytes) no other matrix is formed
    # (256 kB allow for the ufuncs' fixed-size buffers)
    ("channel.gap_report", "generic d=16"): Budget(
        lambda: (mixed_unitary_family(trial_rng(31, 1600), 16, 3),),
        {"svd f1x256x256 compute_uv=False <factorize": 1},
        peak=24 * 256**2 + 2**18,
        live={"svd": 9 * 256**2},
    ),
    ("channel.fix_closed_under_square", "mixed unitary d=24 m=3, fixed space known"): Budget(
        lambda: _known_fixed_space(mixed_unitary_family(trial_rng(24, 0), 24, 3)),
        {"eigvalsh c1x576x576 <factorize": 1},
        never="qr svd",
    ),
    # analyze reads singular values and block shapes: no routine that forms
    # vectors, and only real SVDs (of S_h - I, not S - I)
    **{
        ("cli analyze", demo): Budget(
            tuple,
            {"svd f* compute_uv=False <factorize": svds},
            never="eig eigh qr",
            run=_cli("analyze", input_path=str(DEMO_DATA / demo)),
        )
        for demo, svds in (("pinching.json", 0), ("unitary_mix.json", 1), ("tensor_mix.json", 1))
    },
    # theta's spectrum is read in its own eigenbasis: no general eigensolver
    ("commuting.product_map_check", "intertwining d=4 m=2"): Budget(
        lambda: intertwining_pair(trial_rng(60, 0), 4, 2), never="eigvals"
    ),
    ("cli commuting", "--dim 4 --trials 4"): Budget(tuple, never="eigvals", run=_cli("commuting", dim=4, trials=4)),
    # one 12 x 12 eigh per family and per factor of theta: eigenvalue 1 of
    # multiplicity d is no cluster of either factor
    ("commuting.product_map_check", "intertwining d=12 m=3, after both joint spectra"): Budget(
        lambda: intertwining_pair(trial_rng(65, 0), 12, 3),
        {
            "eigh c12x12 <_eigenbasis": 4,
            "_eigenbasis c3x12x12 <CommutingFamily._diagonalized": 2,
            "_eigenbasis c3x12x12 <_kron_eigenbasis": 2,
        },
        never="_refine",
        run=lambda a, b: (kl.joint_spectrum(a), kl.joint_spectrum(b), commuting.product_map_check(a, b)),
    ),
    ("commuting.product_map_check", "a family fails the gates"): Budget(
        lambda: (ungated_pairs(),), never="eigh _kron_eigenbasis kron_entries kron_sum", run=_refused
    ),
    # theta is diagonalized once, through its factors, and never formed
    ("commuting.product_map_check", "intertwining d=5 m=3 seed 67"): Budget(
        lambda: intertwining_pair(trial_rng(67, 0), 5, 3),
        {"eigh c5x5 <_eigenbasis": 4, "_kron_eigenbasis c3x5x5 <product_map_check": 1},
        never="minus_identity kron_entries kron_sum",
    ),
    ("commuting.product_map_check", "intertwining d=6 m=3, unrelated d=5 and 4 m=2, each twice"): Budget(
        lambda: (fresh_pairs(), True),
        {"_kron_eigenbasis c3x6x6 <product_map_check": 2, "_kron_eigenbasis c2x5x5 <product_map_check": 2},
        never="kron kron_entries kron_sum",
        run=_pairs_checked,
    ),
    # no Sylvester stack is built, reduced to R or solved: the only tall SVDs
    # are joint_spectrum's norm bounds, of the stacked generators
    ("commuting.product_map_check", "d=12 intertwining and unrelated, d=6 repeated tuples"): Budget(
        lambda: (sylvester_free_pairs(),),
        {"svd c36x12 compute_uv=False <product_map_check": 4, "svd c12x6 compute_uv=False <product_map_check": 2}
        # no mode="r" flag ends a QR's key
        | {"qr c*[0-9] <_kron_eigenbasis": 6, "qr c*[0-9] <product_map_check": 7},
        never="sylvester_null_space",
        run=_pairs_checked,
    ),
    ("commuting.product_map_check", "intertwining d=6 m=2, then both bases read"): Budget(
        lambda: intertwining_pair(trial_rng(71, 0), 6, 2),
        {"_eigenbasis c2x6x6 <CommutingFamily._diagonalized": 2, "_eigenbasis c2x6x6 <_kron_eigenbasis": 2},
        run=lambda a, b: (commuting.product_map_check(a, b), kl.simultaneous_diagonalize(a), kl.joint_spectrum(b)),
    ),
    # the benchmark's sweep, per trial: no refinement, theta built once by
    # kron_sum for the positivity check, and of the small eigvalsh only the
    # two completeness defects read and one PSD gate per side
    ("cli commuting", "--dim 12 --ops 3 --trials 20 --seed 0"): Budget(
        tuple,
        {
            "eigh c12x12 <_eigenbasis": 4,
            "eigvalsh c144x144 <positive_eigenvalue_check": 1,
            "eigvalsh c1x12x12 <product_map_check": 2,
            "eigvalsh c3x12x12 <positive_eigenvalue_check": 2,
            "kron_sum c3x12x12 <positive_eigenvalue_check": 1,
        },
        never="_refine kron_entries kron",
        each="product_map_check",
        run=_cli("commuting", dim=12, ops=3, trials=20, seed=0),
    ),
    # theta - theta* is exactly zero: only the Hermitian part is solved
    ("commuting.positive_eigenvalue_check", "Hermitian coefficients d=4 m=3"): Budget(
        lambda: _psd_pair(trial_rng(57, 0), 4, 3, lambda p: (p + p.conj().T) / 2.0),
        {"eigvalsh c16x16 <positive_eigenvalue_check": 1, "eigvalsh c3x4x4 <positive_eigenvalue_check": 2},
    ),
    ("commuting.positive_eigenvalue_check", "PSD within 2e-11 of Hermitian d=4 m=3, 5 trials"): Budget(
        lambda: (range(5),),
        {"eigvalsh c16x16 <positive_eigenvalue_check": 2, "eigvalsh c3x4x4 <positive_eigenvalue_check": 2},
        each="positive_eigenvalue_check",
        run=lambda trials: [commuting.positive_eigenvalue_check(*nearly_hermitian_coefficients(t)) for t in trials],
    ),
    ("commuting.positive_eigenvalue_check", "PSD d=3 m=2"): Budget(
        lambda: _psd_pair(trial_rng(59, 0), 3, 2), never="eigvals"
    ),
    # the product-map check forms no theta, only its near-1 columns in its
    # eigenbasis; the positivity check forms the one theta eigvalsh takes
    ("commuting._theta_fixed_space", "intertwining d=12 m=3"): Budget(
        lambda: (*(f.mats for f in intertwining_pair(trial_rng(60, 0), 12, 3)), 1e-7), peak=THETA12
    ),
    ("commuting.positive_eigenvalue_check", "PSD d=12 m=3"): Budget(
        lambda: _psd_pair(trial_rng(60, 1), 12, 3), peak=2 * THETA12
    ),
    # one eigvalsh per held stack, inside factorize, and one eigh, of the
    # block holding the kernel; the defects are Hermitian, so no SVD
    ("cuntz.experiment", "n=16"): Budget(
        lambda: (16,),
        {f"eigvalsh {s} <factorize": k for s, k in LUDERS16.items()}
        | {"eigvalsh c1x16x16": 1, "eigh c*": 6, "eigh f1x18x18" + SOLVE: 1, "solve f*" + SOLVE: 2}
        | {"build_isometries": 1},
        never="svd",
    ),
    # a complex S at n = 64 would take 16 n^4 bytes (268 MB)
    ("cuntz.experiment", "n=64"): Budget(lambda: (64,), peak=8 * 64**4),
    ("opcore.psd_sqrt", "diag(4, 0)"): Budget(lambda: (np.diag([4.0, 0.0]),), {"eigh c2x1x1": 1}, never="eigvalsh"),
    # the matrix, one chunk buffer and numpy's constant ufunc buffers
    ("opcore.kron_sum", "ginibre d=12 m=3"): Budget(
        lambda: _chunked(*(_ginibres(rng, 12) for rng in [np.random.default_rng(47)] * 2)), peak=2 * THETA12
    ),
    # the values, the chunk buffer and numpy's constant ufunc buffer; one
    # term buffer as large as the values peaked at 2.27x their bytes
    ("opcore.kron_entries", "mixed unitary d=16 m=3"): Budget(
        lambda: (lambda fam: _chunked(fam._adjoints, fam.ops))(mixed_unitary_family(trial_rng(0, 0), 16, 3)),
        peak=3 * 256**2 * 16 // 2,
    ),
    # every Sylvester stack is reduced to its square R before its SVD; the
    # only tall SVDs are joint_spectrum's norm bounds
    ("opcore.sylvester_null_space", "u (x) I_4 d=24 m=3"): Budget(
        lambda: (*tall_families()[0:1] * 2, channel.fix_tol(24)), {"svd c1x36x36 full_matrices=False <factorize": 16}
    ),
    ("opcore.sylvester_null_space", "ginibre d=6 m=3"): Budget(
        lambda: (*tall_families()[1:] * 2, channel.fix_tol(6)), {"svd c1x36x36 full_matrices=False <factorize": 1}
    ),
    ("channel.commutant", "u (x) I_2 d=8 m=3"): Budget(
        lambda: (commutant_family(),), {"svd c1x16x16 full_matrices=False <factorize": 4}
    ),
    ("commuting.product_map_check", "intertwining d=5 m=3 seed 55"): Budget(
        lambda: intertwining_pair(trial_rng(55, 0), 5, 3), {"svd c15x5 compute_uv=False <product_map_check": 2}
    ),
    # a connected stack is one component, its 18 x 9 stack one 9 x 9 R;
    # diagonal rights split it into one component per column of x
    ("opcore.sylvester_null_space", "commuting pair on C^3, with itself"): Budget(
        lambda: (*commuting_pair_on_c3()[:1] * 2, 1e-8), {"svd c1x9x9 full_matrices=False <factorize": 1}
    ),
    ("opcore.sylvester_null_space", "commuting pair on C^3, diagonal pair on C^2"): Budget(
        lambda: (*commuting_pair_on_c3(), 1e-8), {"svd c1x3x3 full_matrices=False <factorize": 2}
    ),
    # a connected stack is built per component like a split one
    ("channel.commutant", "ginibre d=8 m=3"): Budget(lambda: (_ginibres(trial_rng(32, 0), 8),), never="kron"),
    # Hermitian defects: their norms come from eigvalsh, one per family
    ("opcore.completeness_defects", "ginibre d=5 m=3, halved"): Budget(
        lambda: ([0.5 * a for a in _family(np.random.default_rng(59), 5)],), never="svd"
    ),
    ("opcore.completeness_defects", "Hermitian: luders n=16, pinching, d=5"): Budget(
        lambda: (hermitian_families(),),
        {"eigvalsh c1x16x16": 1, "eigvalsh c1x2x2": 1, "eigvalsh c1x5x5": 1},
        run=lambda families: [opcore.completeness_defects(mats) for mats in families],
    ),
}


@pytest.mark.parametrize("key", BUDGET, ids=lambda key: "-".join(key).replace(" ", "_"))
def test_budget(key):
    check(key[0], BUDGET[key])


def _queried_core(fam):
    family_queries(fam)
    return fam._spectral_core


@pytest.mark.parametrize(
    "make",
    [lambda: opcore.factorize(luders_split(48)[0]), lambda: _queried_core(kl.KrausFamily([np.diag([0.5, 0.6, 0.75])]))],
    ids=["luders48", "diag-queries"],
)
def test_each_held_stack_is_read_once_in_order(make):
    # eigvalsh reads each held stack itself, once, and no copy of it
    with recording() as calls:
        stacks = make().stacks
    read = [c.arg() for c in calls if c.routine == "eigvalsh"]
    assert [i for a in read for i, s in enumerate(stacks) if a is s] == list(range(len(stacks)))
