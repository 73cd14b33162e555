"""Tests for the ``engine-threads`` rule of ``tools/check_invariants.py``.

The engine runs every query serially on the calling thread; the rule
keeps thread pools and threads from coming back under ``repro/engine/``
while leaving locks, and threads elsewhere in the tree, legal.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_invariants", ROOT / "tools" / "check_invariants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _findings(checker, tmp_path, package: str, source: str) -> list[str]:
    path = tmp_path / "src" / "repro" / package / "mod.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return [finding for finding in checker.check_file(path, tmp_path)
            if "[engine-threads]" in finding]


@pytest.mark.parametrize("source", [
    "from concurrent.futures import ThreadPoolExecutor\n"
    "POOL = ThreadPoolExecutor\n",
    "import concurrent.futures\nPOOL = concurrent.futures\n",
    "from concurrent import futures\nPOOL = futures\n",
    "from threading import Thread\nWORKER = Thread\n",
    "import threading\nWORKER = threading.Thread\n",
    "from multiprocessing.pool import ThreadPool\nPOOL = ThreadPool\n",
])
def test_thread_pools_rejected_in_engine(checker, tmp_path, source):
    assert _findings(checker, tmp_path, "engine", source)


def test_locks_allowed_in_engine(checker, tmp_path):
    source = "import threading\nLOCK = threading.Lock()\n"
    assert _findings(checker, tmp_path, "engine", source) == []


def test_threads_allowed_outside_engine(checker, tmp_path):
    source = "import threading\nWORKER = threading.Thread\n"
    assert _findings(checker, tmp_path, "stream", source) == []
