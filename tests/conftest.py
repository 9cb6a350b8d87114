import numpy.fft
import pytest

from epnls.grid import EvenGrid


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that grows by one entry with every numpy.fft.fft / ifft /
    fftn / ifftn call: the number of complex points that call transforms.
    Grid.fft and Grid.ifft make one fft or ifft call per grid axis, so an
    n-D transform counts n times and a 1D transform once.  fftn does not
    reach the counted fft, so no direct fftn call counts twice."""
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn"):
        orig = getattr(numpy.fft, name)

        def counted(*args, _orig=orig, **kwargs):
            out = _orig(*args, **kwargs)
            calls.append(out.size)
            return out

        monkeypatch.setattr(numpy.fft, name, counted)
    return calls


@pytest.fixture
def even_transforms(monkeypatch):
    """A list that grows by one entry with every EvenGrid.fft / ifft call:
    the number of complex points that call transforms, over all its axes."""
    calls = []
    for name in ("fft", "ifft"):
        orig = getattr(EvenGrid, name)

        def counted(self, *args, _orig=orig, **kwargs):
            out = _orig(self, *args, **kwargs)
            calls.append(out.size)
            return out

        monkeypatch.setattr(EvenGrid, name, counted)
    return calls
