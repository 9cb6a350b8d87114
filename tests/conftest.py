import numpy.fft
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that grows by one entry with every numpy.fft.fft / ifft /
    fftn / ifftn call: the number of complex points that call transforms.
    fftn does not reach the counted fft, so no transform counts twice."""
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        orig = getattr(numpy.fft, name)

        def counted(*args, _orig=orig, **kwargs):
            out = _orig(*args, **kwargs)
            calls.append(out.size)
            return out

        monkeypatch.setattr(numpy.fft, name, counted)
    return calls
