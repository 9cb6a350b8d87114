import numpy.fft
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that grows by one with every numpy.fft.fftn / ifftn call."""
    calls = []
    for name in ("fftn", "ifftn"):
        orig = getattr(numpy.fft, name)

        def counted(*args, _orig=orig, **kwargs):
            calls.append(1)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(numpy.fft, name, counted)
    return calls
