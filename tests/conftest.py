"""Shared fixtures for the polyemo test suite."""

import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from polyemo import atomic
from polyemo.corpus import EMOTIONS, DatasetSplit, LabeledDocument
from polyemo.sparse_features import SparseRows
from polyemo.synthetic import write_corpus, write_word_vectors

settings.register_profile(
    "polyemo",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("polyemo")

# one line per acceptance check, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checks")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def make_split(texts, labels=None, language="xx", role="train", ids=None):
    """Build an in-memory DatasetSplit from parallel lists."""
    docs = []
    for i, text in enumerate(texts):
        doc_id = ids[i] if ids is not None else f"d{i}"
        row = None if labels is None else tuple(int(v) for v in labels[i])
        docs.append(LabeledDocument(id=doc_id, text=text, labels=row))
    return DatasetSplit(language=language, role=role, documents=tuple(docs))


def sparse_rows(x) -> SparseRows:
    """The nonzero entries of dense ``x``, row by row, as the SparseRows that tf-idf features come in."""
    x = np.asarray(x, dtype=float)
    rows, columns = np.nonzero(x)
    indptr = np.zeros(x.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(x, axis=1), out=indptr[1:])
    return SparseRows(x[rows, columns], columns.astype(np.int32), indptr, x.shape)


def random_label_matrix(rng, n_samples, n_labels=len(EMOTIONS)):
    return rng.integers(0, 2, size=(n_samples, n_labels)).astype(np.int64)


def _no_network(request, *args, **kwargs):
    url = getattr(request, "full_url", request)
    pytest.fail(f"test tried to reach the network: urlopen({url!r}); replace urllib.request.urlopen")


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    """Make ``urllib.request.urlopen`` fail the test unless the test replaces it.

    ``pytest.fail`` is not an ``Exception``, so code that turns network
    errors into its own errors cannot swallow it.
    """
    monkeypatch.setattr(urllib.request, "urlopen", _no_network)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def synthetic_dir(tmp_path_factory):
    """Small synthetic corpus on disk: data/<lang>/{train,dev,test}.csv plus vectors."""
    root = tmp_path_factory.mktemp("synthetic")
    data_dir = root / "data"
    write_corpus(data_dir, seed=0, n_documents=120, language="syn")
    write_word_vectors(root / "syn.vec", seed=0, dimension=12)
    return root


def _half_write_then_fail(path, mode="r", **kwargs):
    fh = open(path, mode, **kwargs)
    real_write = fh.write

    def write(data):
        real_write(data[: len(data) // 2])
        raise OSError("no space left on device")

    fh.write = write
    return fh


@pytest.fixture
def fill_disk(monkeypatch):
    """Call it to make every later ``atomic_open`` file fail like a full disk.

    The file takes half of its first write, then the write raises OSError.
    """
    return lambda: monkeypatch.setattr(atomic, "open", _half_write_then_fail, raising=False)
