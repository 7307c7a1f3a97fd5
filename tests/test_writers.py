"""The CSV writers against their oracles: the ECDF and the event log against
their row-by-row forms, the other writers against their `csv.writer` forms.
Every file must be byte-equal."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cv2xsim import engine, metrics
from cv2xsim.engine import TX_DTYPE, EventLog
from cv2xsim.metrics import BinValue, BlindReport, GainBin, IpgStats


def file_bytes(write) -> bytes:
    """The bytes `write(path)` puts in a fresh file."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "out.csv"
        write(path)
        return path.read_bytes()


def ecdf(samples: oracles.IpgSamples) -> IpgStats:
    """IpgStats over the oracle's sorted samples: each distinct gap with its
    count, and the same bins and p80."""
    return IpgStats(samples.bins, *np.unique(samples.gaps_ms, return_counts=True),
                    samples.p80_ms)


def ipg_bytes(samples: oracles.IpgSamples) -> tuple[bytes, bytes]:
    """ipg.csv from the writer and from its oracle."""
    return (file_bytes(lambda p: metrics.write_ipg_csv(p, ecdf(samples))),
            file_bytes(lambda p: oracles.write_ipg_csv(p, samples)))


def txevents_bytes(log: EventLog) -> tuple[bytes, bytes]:
    """txevents.csv from the writer and from its oracle."""
    return file_bytes(log.write_csv), file_bytes(lambda p: oracles.write_txevents_csv(log, p))


@st.composite
def ipg_cases(draw):
    """The oracle's statistics over runs of equal gaps, with a few bin rows,
    and the ECDF chunk size to write with."""
    runs = draw(st.lists(st.integers(1, 40), max_size=8))
    values = sorted(draw(st.lists(st.integers(1, 10 ** 7), min_size=len(runs),
                                  max_size=len(runs), unique=True)))
    gaps = np.repeat(np.array(values, dtype=np.int64), runs)
    bins = [BinValue(25.0 * b, 25.0 * (b + 1), v, k) for b, v, k in
            draw(st.lists(st.tuples(st.integers(0, 40),
                                    st.floats(0.0, 1e7, allow_nan=False),
                                    st.integers(1, 10 ** 6)), max_size=4))]
    return oracles.ipg_samples(bins, gaps), draw(st.sampled_from([1, 2, 3, 5, 1024]))


@settings(max_examples=200, deadline=None)
@given(ipg_cases())
def test_ipg_csv_matches_row_by_row_oracle(case):
    samples, chunk = case
    with mock.patch.object(metrics, "_ECDF_CHUNK", chunk):
        new, oracle = ipg_bytes(samples)
    assert new == oracle


@pytest.mark.parametrize("gaps", [[], [100]], ids=["empty", "single-row"])
def test_ipg_csv_tiny_ecdf(gaps):
    new, oracle = ipg_bytes(oracles.ipg_samples([], gaps))
    assert new == oracle
    assert new.count(b"ecdf") == len(gaps) and new.count(b"p80") == len(gaps)


def test_ipg_csv_run_across_the_chunk_and_tiny_probabilities():
    """A run of 5,000 equal gaps crosses chunks of the writer's own size,
    and with 12,000 samples the first probabilities are below 1e-4."""
    assert metrics._ECDF_CHUNK < 5000
    gaps = [100] * 5000 + [101] * 6999 + [250]
    new, oracle = ipg_bytes(oracles.ipg_samples([], gaps))
    assert new == oracle
    assert b"ecdf,,,100,8.33333e-05\r\n" in new and b"p80,,,101,\r\n" in new


def tx_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """`n` event-log rows with negative and large powers and positions."""
    rows = np.zeros(n, TX_DTYPE)
    for name in TX_DTYPE.names:
        rows[name] = rng.integers(0, 20000, n)
    rows["power_dbm"] = rng.uniform(-40.0, 23.0, n)
    rows["power_dbm"][::7] = 23.0
    rows["x_m"] = 10.0 ** rng.uniform(-3.0, 8.0, n)
    return rows


@st.composite
def event_logs(draw):
    """An event log of a few appended chunks; powers may be negative and
    positions at or above 1e6 m, where `.6g` switches to exponent form."""
    log = EventLog()
    floats = st.floats(-1e3, 1e9, allow_nan=False)
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 6))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        rows = tx_rows(rng, n)
        rows["power_dbm"] = draw(st.lists(st.floats(-60.0, 23.0), min_size=n, max_size=n))
        rows["x_m"] = draw(st.lists(floats, min_size=n, max_size=n))
        log.append(rows)
    return log


@settings(max_examples=150, deadline=None)
@given(event_logs())
def test_txevents_csv_matches_row_by_row_oracle(log):
    new, oracle = txevents_bytes(log)
    assert new == oracle


def test_txevents_csv_without_transmissions():
    new, oracle = txevents_bytes(EventLog())
    assert new == oracle and new.count(b"\r\n") == 1


def test_txevents_csv_across_chunks():
    """Rows over several chunks, appended in pieces that do not align
    with them, so event ids carry across."""
    assert 3000 % engine._LOG_CHUNK != 0
    rng = np.random.default_rng(5)
    log = EventLog()
    for n in (3000, 4000, 1200):
        log.append(tx_rows(rng, n))
    new, oracle = txevents_bytes(log)
    assert new == oracle
    assert new.count(b"\r\n") == 8201 and b"\r\n8199," in new


# Floats of every kind the `%` templates must write as `fmt` does: negative,
# at least 1e6 and below 1e-4 (exponent form), integral, signed zero, inf
# and nan; and ints up to past 64 bits
floats = st.one_of(st.floats(), st.integers(-10 ** 12, 10 ** 12).map(float),
                   st.sampled_from([0.0, -0.0, 1e-4, 9.99999e-5, 999999.5, 1e6, 25.0]))
ints = st.integers(0, 2 ** 70)


def writer_bytes(name: str, *args) -> tuple[bytes, bytes]:
    """The file `metrics.<name>` writes from `args`, and its oracle's."""
    return (file_bytes(lambda p: getattr(metrics, name)(p, *args)),
            file_bytes(lambda p: getattr(oracles, name)(p, *args)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(BinValue, floats, floats, floats, ints), max_size=6),
       st.sampled_from(["pdr", "slt_bytes_per_s"]))
@example([], "pdr")
def test_bin_csv_matches_csv_writer_oracle(rows, value_col):
    new, oracle = writer_bytes("write_bin_csv", rows, value_col)
    assert new == oracle


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(ints, ints), max_size=6))
@example([])
def test_blind_csv_matches_csv_writer_oracle(pairs):
    new, oracle = writer_bytes("write_blind_csv", BlindReport(len(pairs), pairs))
    assert new == oracle


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(floats, floats, floats, floats), max_size=6))
@example([])
def test_timeseries_csv_matches_csv_writer_oracle(rows):
    new, oracle = writer_bytes("write_timeseries_csv", rows)
    assert new == oracle


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(GainBin, floats, floats, floats, floats, ints), max_size=6))
@example([])
def test_gains_csv_matches_csv_writer_oracle(rows):
    new, oracle = writer_bytes("write_gains_csv", rows)
    assert new == oracle

