"""The container writer's second thread: same bytes, clean failure."""

import threading
from concurrent.futures import Future

import pytest

from repro.store import format as fmt
from repro.store.format import write_container
from tests.store.test_format import build_multichunk_trace

CHUNK = 100


class InlineExecutor:
    """An executor that runs each job on the calling thread at submit."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def write_bytes(tmp_path, trace, name):
    path = tmp_path / name
    nbytes = write_container(path, trace, identity={"n": len(trace)},
                             chunk_records=CHUNK)
    data = path.read_bytes()
    assert len(data) == nbytes
    return data


class TestThreadedWriter:
    # 0, 1, 2 and 3 chunks, full and partial last chunks.
    @pytest.mark.parametrize("n_records", [0, 40, 100, 150, 200, 250, 300])
    def test_same_bytes_as_one_thread(self, tmp_path, monkeypatch, n_records):
        trace = build_multichunk_trace(n_records)
        packers = set()
        pack = fmt._pack

        def spy(raw):
            packers.add(threading.current_thread())
            return pack(raw)

        monkeypatch.setattr(fmt, "_pack", spy)
        threaded = write_bytes(tmp_path, trace, "two.rptc")
        n_chunks = -(-n_records // CHUNK)
        # The worker packs the odd chunks once there are two.
        assert len(packers) == min(n_chunks, 2)
        packers.clear()
        monkeypatch.setattr(fmt, "ThreadPoolExecutor", InlineExecutor)
        inline = write_bytes(tmp_path, trace, "one.rptc")
        assert packers <= {threading.main_thread()}
        assert threaded == inline

    def test_worker_error_reaches_the_caller(self, tmp_path, monkeypatch):
        trace = build_multichunk_trace(300)
        pack = fmt._pack

        def failing(raw):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("compression failed")
            return pack(raw)

        monkeypatch.setattr(fmt, "_pack", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="compression failed"):
            write_container(tmp_path / "t.rptc", trace, chunk_records=CHUNK)
        assert list(tmp_path.iterdir()) == []
        assert not list(tmp_path.glob(".tmp-*"))
        assert threading.active_count() == threads
