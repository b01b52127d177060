"""Zero-copy trace loading: mmap-backed reads and .bcodes sidecars."""

import numpy as np
import pytest

from repro.profiles.io import (
    CODES_MAGIC,
    TraceFormatError,
    codes_path_for,
    ensure_codes_sidecar,
    read_codes_sidecar,
    read_trace_binary,
    trace_content_hash,
    write_codes_sidecar,
    write_trace_binary,
)
from repro.core.config import DetectorConfig, ModelKind
from repro.core.engine import run_detector
from repro.profiles.trace import BranchTrace
from repro.workloads import load_traces


@pytest.fixture
def trace():
    rng = np.random.default_rng(7)
    return BranchTrace(rng.integers(0, 40, size=2_000), name="zc")


@pytest.fixture
def btrace_path(trace, tmp_path):
    path = tmp_path / "zc.btrace"
    write_trace_binary(trace, path)
    return path


class TestMmapRead:
    def test_equals_heap_read(self, trace, btrace_path):
        mapped = read_trace_binary(btrace_path, mmap=True)
        heap = read_trace_binary(btrace_path, mmap=False)
        assert mapped == heap == trace
        assert mapped.name == trace.name

    def test_backed_by_memmap(self, btrace_path):
        mapped = read_trace_binary(btrace_path, mmap=True)
        assert isinstance(mapped.array.base, np.memmap) or isinstance(
            mapped.array, np.memmap
        )

    def test_read_only(self, btrace_path):
        mapped = read_trace_binary(btrace_path, mmap=True)
        assert not mapped.array.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            mapped.array[0] = 1

    def test_hash_and_stats_work(self, trace, btrace_path):
        mapped = read_trace_binary(btrace_path, mmap=True)
        assert hash(mapped) == hash(trace)
        assert mapped.stats() == trace.stats()
        assert np.array_equal(
            np.concatenate(list(mapped.chunks(97))), trace.array
        )

    def test_empty_trace_mmap(self, tmp_path):
        path = tmp_path / "e.btrace"
        write_trace_binary(BranchTrace([], name="empty"), path)
        mapped = read_trace_binary(path, mmap=True)
        assert len(mapped) == 0
        assert mapped.name == "empty"


class TestCodesSidecar:
    def test_round_trip(self, trace, btrace_path):
        codes_path = codes_path_for(btrace_path)
        assert codes_path.suffix == ".bcodes"
        write_codes_sidecar(trace, codes_path)
        codes, values, counts = read_codes_sidecar(codes_path, trace)
        expect_codes, expect_values = trace.dense_codes()
        assert np.array_equal(codes, expect_codes)
        assert np.array_equal(values, expect_values)
        assert np.array_equal(counts, trace.unique()[1])

    def test_mmap_round_trip(self, trace, btrace_path):
        codes_path = codes_path_for(btrace_path)
        write_codes_sidecar(trace, codes_path)
        codes, values, counts = read_codes_sidecar(codes_path, trace, mmap=True)
        assert np.array_equal(codes, trace.dense_codes()[0])
        assert not codes.flags.writeable

    def test_adoption_matches_computation(self, trace, btrace_path):
        codes_path = codes_path_for(btrace_path)
        write_codes_sidecar(trace, codes_path)
        fresh = read_trace_binary(btrace_path, mmap=True)
        adopted = read_codes_sidecar(codes_path, fresh, mmap=True)
        fresh.adopt_dense_codes(*adopted)
        assert np.array_equal(fresh.dense_codes()[0], trace.dense_codes()[0])
        assert fresh.stats() == trace.stats()
        assert np.array_equal(fresh.prev_links(), trace.prev_links())

    def test_stale_for_different_trace(self, trace, btrace_path):
        codes_path = codes_path_for(btrace_path)
        write_codes_sidecar(trace, codes_path)
        other = BranchTrace(trace.array[::-1].copy(), name="zc")
        with pytest.raises(TraceFormatError, match="content hash mismatch"):
            read_codes_sidecar(codes_path, other)

    def test_length_mismatch(self, trace, btrace_path):
        codes_path = codes_path_for(btrace_path)
        write_codes_sidecar(trace, codes_path)
        shorter = BranchTrace(trace.array[:-1].copy())
        with pytest.raises(TraceFormatError, match="elements"):
            read_codes_sidecar(codes_path, shorter)

    def test_bad_magic(self, trace, tmp_path):
        path = tmp_path / "bad.bcodes"
        path.write_bytes(b"GARBAGE!" + b"\x00" * 64)
        with pytest.raises(TraceFormatError, match="bad magic"):
            read_codes_sidecar(path, trace)

    def test_unsupported_version(self, trace, btrace_path):
        codes_path = codes_path_for(btrace_path)
        write_codes_sidecar(trace, codes_path)
        data = bytearray(codes_path.read_bytes())
        data[len(CODES_MAGIC) : len(CODES_MAGIC) + 4] = (99).to_bytes(4, "little")
        codes_path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="version"):
            read_codes_sidecar(codes_path, trace)

    def test_truncated(self, trace, btrace_path):
        codes_path = codes_path_for(btrace_path)
        write_codes_sidecar(trace, codes_path)
        data = codes_path.read_bytes()
        codes_path.write_bytes(data[:-4])
        with pytest.raises(TraceFormatError):
            read_codes_sidecar(codes_path, trace)

    def test_content_hash_is_storage_independent(self, trace, btrace_path):
        mapped = read_trace_binary(btrace_path, mmap=True)
        assert trace_content_hash(mapped) == trace_content_hash(trace)


def corrupt_payload(path, edit):
    """Rewrite a sidecar's arrays as ``edit(codes, values, counts)``
    returns them, keeping magic, version, hash, length and the declared
    sizes valid."""
    data = path.read_bytes()
    header = len(CODES_MAGIC) + 4 + 32
    n_codes = int.from_bytes(data[header : header + 8], "little")
    offset = header + 16
    values = np.frombuffer(data, dtype="<i8", count=n_codes, offset=offset)
    counts = np.frombuffer(
        data, dtype="<i8", count=n_codes, offset=offset + 8 * n_codes
    )
    codes = np.frombuffer(data, dtype="<i4", offset=offset + 16 * n_codes)
    codes, values, counts = edit(codes.copy(), values.copy(), counts.copy())
    path.write_bytes(
        data[:header] + values.size.to_bytes(8, "little") + data[header + 8 : offset]
        + values.astype("<i8").tobytes() + counts.astype("<i8").tobytes()
        + codes.astype("<i4").tobytes()
    )


def _recode(new_codes):
    """Overwrite the first 400 codes with ``new_codes(codes, n_codes)``."""

    def edit(codes, values, counts):
        codes[:400] = new_codes(codes[:400], values.size)
        return codes, values, counts

    return edit


#: Payload corruptions behind a valid header: the hash covers the trace,
#: not the remap, so each of these used to be adopted (or, out of range,
#: to raise a bare IndexError inside the kernels).
CORRUPTIONS = {
    "another-valid-code": _recode(lambda codes, n: (codes + 1) % n),
    "minus-one": _recode(lambda codes, n: -1),
    "out-of-range": _recode(lambda codes, n: n),
}
PAYLOAD_CORRUPTIONS = [
    pytest.param(CORRUPTIONS["another-valid-code"], "reproduce the trace",
                 id="another-valid-code"),
    pytest.param(CORRUPTIONS["minus-one"], "outside", id="minus-one"),
    pytest.param(CORRUPTIONS["out-of-range"], "outside", id="out-of-range"),
    pytest.param(lambda c, v, n: (c, v[[1, 0, *range(2, v.size)]], n),
                 "strictly increasing", id="unsorted-values"),
    pytest.param(lambda c, v, n: (c, v, n + (np.arange(n.size) == 0)), "counts",
                 id="wrong-count"),
    pytest.param(lambda c, v, n: (c, np.append(v, v[-1] + 1), np.append(n, 0)),
                 "never occurs", id="unused-value"),
]


class TestCorruptPayload:
    @pytest.mark.parametrize("mmap", [False, True], ids=["heap", "mmap"])
    @pytest.mark.parametrize("edit, match", PAYLOAD_CORRUPTIONS)
    def test_rejected_at_read(self, trace, btrace_path, edit, match, mmap):
        codes_path = codes_path_for(btrace_path)
        write_codes_sidecar(trace, codes_path)
        corrupt_payload(codes_path, edit)
        with pytest.raises(TraceFormatError, match=match):
            read_codes_sidecar(codes_path, trace, mmap=mmap)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupted_cache_is_rebuilt(self, tmp_path, corruption):
        """``load_traces`` over a cache whose sidecar codes were
        corrupted gives the phases of a heap copy with its own remap."""
        config = DetectorConfig(cw_size=75, model=ModelKind.WEIGHTED)
        load_traces("jlex", scale=0.08, cache_dir=tmp_path)
        (codes_path,) = tmp_path.glob("*.bcodes")
        corrupt_payload(codes_path, CORRUPTIONS[corruption])
        mapped, _ = load_traces("jlex", scale=0.08, cache_dir=tmp_path)
        heap = BranchTrace(np.array(mapped.array), name=mapped.name)
        assert run_detector(mapped, config).detected_phases == (
            run_detector(heap, config).detected_phases
        )
        # The sidecar on disk was rebuilt, not left corrupted.
        codes, _, _ = read_codes_sidecar(codes_path, heap)
        assert np.array_equal(codes, heap.dense_codes()[0])


class TestEnsureCodesSidecar:
    def test_builds_then_loads(self, trace, btrace_path):
        assert ensure_codes_sidecar(trace, btrace_path) is False
        assert codes_path_for(btrace_path).exists()
        fresh = read_trace_binary(btrace_path)
        assert ensure_codes_sidecar(fresh, btrace_path) is True
        assert np.array_equal(fresh.dense_codes()[0], trace.dense_codes()[0])

    def test_regenerates_stale_sidecar(self, trace, btrace_path):
        codes_path = codes_path_for(btrace_path)
        ensure_codes_sidecar(trace, btrace_path)
        # Corrupt the stored hash: the stale sidecar must be rebuilt
        # transparently, never adopted.
        data = bytearray(codes_path.read_bytes())
        offset = len(CODES_MAGIC) + 4
        data[offset] ^= 0xFF
        codes_path.write_bytes(bytes(data))
        fresh = read_trace_binary(btrace_path)
        assert ensure_codes_sidecar(fresh, btrace_path) is False
        assert ensure_codes_sidecar(read_trace_binary(btrace_path), btrace_path)

    def test_regenerates_torn_sidecar(self, trace, btrace_path):
        codes_path = codes_path_for(btrace_path)
        ensure_codes_sidecar(trace, btrace_path)
        codes_path.write_bytes(codes_path.read_bytes()[:10])
        fresh = read_trace_binary(btrace_path)
        assert ensure_codes_sidecar(fresh, btrace_path) is False
        assert np.array_equal(fresh.dense_codes()[0], trace.dense_codes()[0])

    def test_unwritable_dir_still_computes(self, trace, tmp_path):
        target = tmp_path / "ro"
        target.mkdir()
        btrace = target / "t.btrace"
        write_trace_binary(trace, btrace)
        target.chmod(0o500)
        try:
            fresh = read_trace_binary(btrace)
            assert ensure_codes_sidecar(fresh, btrace) is False
            assert np.array_equal(fresh.dense_codes()[0], trace.dense_codes()[0])
        finally:
            target.chmod(0o700)
