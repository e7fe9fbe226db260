"""Matrix dumps: the writer against a per-row reference, and the round trip.

``reference_dump`` is the row-by-row ``%`` writer that ``dump_matrix``
replaced: one ``"%.17g%+.17gj"`` per entry, a row per ``%`` call.  The
fast writer must produce its bytes for every operator the catalog dumps
and for arbitrary float64 bit patterns.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fwexact.cli
from fwexact import BlockOperator, ModelSpec, dirac_1d
from fwexact.cli import dump_matrix, load_matrix, main

SIGN = 1 << 63

#: Bit patterns the writer must treat apart: both zeros, the smallest and
#: largest subnormals, the smallest normal, the largest finite, infinities,
#: quiet and signalling NaNs with either sign and payload, 1 and 1 + ulp.
SPECIAL_BITS = [
    0x0000000000000000,
    0x0000000000000001,
    0x000FFFFFFFFFFFFF,
    0x0010000000000000,
    0x7FEFFFFFFFFFFFFF,
    0x7FF0000000000000,
    0x7FF8000000000000,
    0x7FF0000000000001,
    0x7FFFFFFFFFFFFFFF,
    0x3FF0000000000000,
    0x3FF0000000000001,
    0x3EB0C6F7A0B5ED8D,
]


def reference_dump(a: BlockOperator, path) -> Path:
    """The per-row writer: each row is one ``%`` format over its
    interleaved real and imaginary parts."""
    path = Path(path)
    row_format = ",".join(["%.17g%+.17gj"] * a.side) + "\n"
    interleaved = np.ascontiguousarray(a.data, dtype=complex).view(np.float64)
    with path.open("w", encoding="utf-8") as out:
        out.write(
            f"# rows={a.side} cols={a.side} internal_dim={a.internal_dim} "
            f"floquet_copies={a.floquet_copies}\n"
        )
        out.writelines(row_format % tuple(row.tolist()) for row in interleaved)
    return path


def assert_same_bytes(a: BlockOperator, tmp_path) -> bytes:
    written = dump_matrix(a, tmp_path / "fast.csv").read_bytes()
    assert written == reference_dump(a, tmp_path / "reference.csv").read_bytes()
    return written


def odd_potential(self):
    """``dirac_1d`` at N = 8 with V = 0.2 cos x + 0.1 sin x: not even, so
    its block is written complex, in the grid basis."""
    return dirac_1d(1.0, 8, 2.0 * np.pi, lambda x: 0.2 * np.cos(x) + 0.1 * np.sin(x))


#: Command lines whose ``transform --dump`` covers every dump path: the
#: real sector layout (dirac_1d, even V) at two sizes, the grid-basis
#: layout (odd V), a 4x4 fermion, a boson and a Floquet extended space.
CATALOG_DUMPS = {
    "dirac_1d N=8": (["model.name=dirac_1d", "model.params.N=8", "model.params.V1=0.2"], None),
    "dirac_1d N=32": (["model.name=dirac_1d", "model.params.N=32", "model.params.V1=0.2"], None),
    "dirac_1d odd V": (["model.name=dirac_1d", "model.params.N=8"], odd_potential),
    "free_dirac": (
        ["model.name=free_dirac", "model.params.px=0.3", "model.params.pz=0.75"],
        None,
    ),
    "feshbach_villars": (["model.name=feshbach_villars", "model.params.p=0.75"], None),
    "floquet_dirac_vector nf=4": (
        [
            "model.name=floquet_dirac_vector",
            "model.params.pz=0.5",
            "model.params.A1=0.2",
            "floquet.nf=[4]",
        ],
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(CATALOG_DUMPS))
def test_catalog_dumps_match_the_reference(tmp_path, monkeypatch, case):
    assignments, build = CATALOG_DUMPS[case]
    if build is not None:
        monkeypatch.setattr(ModelSpec, "build", build)
    written = {}

    def recording(a, path):
        written[Path(path).name] = a
        return dump_matrix(a, path)

    monkeypatch.setattr(fwexact.cli, "dump_matrix", recording)
    argv = ["transform", "--dump", "--report", str(tmp_path / "r.json")]
    argv += ["--set", f"output.dump_dir={tmp_path / 'dumps'}"]
    for assignment in assignments:
        argv += ["--set", assignment]
    assert main(argv) == 0
    assert sorted(written) == ["h_fw.csv", "lambda.csv", "s.csv", "u.csv"]
    for name, operator in written.items():
        reference = reference_dump(operator, tmp_path / f"reference-{name}")
        assert (tmp_path / "dumps" / name).read_bytes() == reference.read_bytes(), name


def matrices():
    """Real or complex operators of side 2 to 8 whose parts are drawn,
    with a sign flip each, from a small pool of arbitrary or special bit
    patterns, so that values repeat and a value and its negation both
    appear."""

    @st.composite
    def build(draw):
        copies = draw(st.integers(1, 4))
        side = 2 * copies
        is_complex = draw(st.booleans())
        parts = side * side * (2 if is_complex else 1)
        pool = draw(
            st.lists(
                st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(SPECIAL_BITS)),
                min_size=1,
                max_size=12,
            )
        )
        picks = draw(
            st.lists(
                st.tuples(st.integers(0, len(pool) - 1), st.booleans()),
                min_size=parts,
                max_size=parts,
            )
        )
        bits = np.array([pool[i] ^ (SIGN if flip else 0) for i, flip in picks], dtype=np.uint64)
        values = bits.view(np.complex128 if is_complex else np.float64)
        return BlockOperator(values.reshape(side, side), 2, copies)

    return build()


@settings(max_examples=300, deadline=None)
@given(a=matrices())
def test_arbitrary_bit_patterns_match_the_reference(tmp_path_factory, a):
    assert_same_bytes(a, tmp_path_factory.mktemp("dump"))


def test_planted_patterns_match_the_reference(tmp_path):
    # every pair of special patterns, each with either sign, as the real
    # and the imaginary part of one entry
    bits = np.array(SPECIAL_BITS + [b ^ SIGN for b in SPECIAL_BITS], dtype=np.uint64)
    n = bits.size
    parts = np.stack([np.repeat(bits, n), np.tile(bits, n)], axis=-1)
    a = BlockOperator(parts.view(np.complex128).reshape(n, n), 2, n // 2)
    text = assert_same_bytes(a, tmp_path).decode()
    for token in ("nan-", "+nanj", "-inf+", "-infj", "-0+0j", "-0-0j", "-4.9406564584124654e-324", "1.0000000000000002"):
        assert token in text


def test_real_operator_matches_the_reference(tmp_path):
    rng = np.random.default_rng(23)
    data = rng.normal(size=(6, 6)) * 10.0 ** rng.integers(-320, 300, size=(6, 6))
    data[0] = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324]
    data[1] = -data[2]
    text = assert_same_bytes(BlockOperator(data, 2, 3), tmp_path).decode()
    assert "-0+0j" in text.splitlines()[1]


def assert_round_trip(original: BlockOperator, loaded: BlockOperator) -> None:
    """Every non-NaN part reads back with its bits; a NaN reads NaN."""
    before = np.ascontiguousarray(original.data, dtype=complex).view(np.float64)
    after = loaded.data.view(np.float64)
    nan = np.isnan(before)
    assert np.array_equal(np.isnan(after), nan)
    assert np.array_equal(before.view(np.uint64)[~nan], after.view(np.uint64)[~nan])
    assert (loaded.internal_dim, loaded.floquet_copies) == (
        original.internal_dim,
        original.floquet_copies,
    )


@settings(max_examples=200, deadline=None)
@given(a=matrices())
def test_load_inverts_dump_bit_for_bit(tmp_path_factory, a):
    path = dump_matrix(a, tmp_path_factory.mktemp("dump") / "m.csv")
    assert_round_trip(a, load_matrix(path))


def test_round_trip_keeps_signed_zeros_and_subnormals(tmp_path):
    data = np.array(
        [
            [complex(-0.0, 0.0), complex(0.0, -0.0)],
            [complex(5e-324, -5e-324), complex(-2.2250738585072009e-308, np.nan)],
        ]
    )
    a = BlockOperator(data, 2)
    loaded = load_matrix(dump_matrix(a, tmp_path / "m.csv"))
    assert_round_trip(a, loaded)
    assert np.signbit(loaded.data[0, 0].real) and not np.signbit(loaded.data[0, 0].imag)
    assert np.signbit(loaded.data[0, 1].imag) and not np.signbit(loaded.data[0, 1].real)
    assert loaded.data[1, 0] == complex(5e-324, -5e-324)
