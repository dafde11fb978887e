"""The six scipy.special ufuncs mqrank uses, loaded without running
scipy.special's package init.

``import scipy.special`` costs about 0.2 s over numpy, most of it in
``scipy.special._support_alternative_backends``, which loads
scipy._lib._array_api, numpy.f2py and numpy.testing. The six functions
live in the compiled module scipy.special._ufuncs, which loads in about
13 ms. For the length of that one import a bare package module with the
real ``__path__`` stands in for scipy.special in sys.modules; it is then
removed, and _ufuncs stays registered, so a later ``import scipy.special``
(or scipy.stats, or scipy.optimize) reuses it and ``scipy.special.chdtrc
is chdtrc`` holds. Nothing here looks the name up on the scipy module:
scipy's lazy ``__getattr__`` would import the whole package.

When scipy.special is already loaded, or the private load raises
ImportError (another scipy layout), a plain ``import scipy.special`` runs
instead; both give the same ufunc objects. The risks: _ufuncs is a
private module name, and for the length of the one import another thread
that imports scipy.special would see the stub. The private extension
modules that _ufuncs loads with it (_ufuncs_cxx, _special_ufuncs, ...)
stay in sys.modules, so ``from scipy.special import _ufuncs_cxx`` works,
but a later scipy.special does not hold them as attributes.
"""

import importlib
import sys
import types

import scipy


def _ufunc_module():
    """scipy.special._ufuncs, imported under a bare stand-in for its
    package; scipy.special itself when that is already loaded or the
    private load fails."""
    if "scipy.special" not in sys.modules:
        stub = types.ModuleType("scipy.special")
        stub.__path__ = [scipy.__path__[0] + "/special"]
        sys.modules["scipy.special"] = stub
        try:
            return importlib.import_module("scipy.special._ufuncs")
        except ImportError:
            pass
        finally:
            del sys.modules["scipy.special"]
    return importlib.import_module("scipy.special")


_module = _ufunc_module()
betaln = _module.betaln
chdtrc = _module.chdtrc
chdtri = _module.chdtri
chndtr = _module.chndtr
ndtri = _module.ndtri
stdtrit = _module.stdtrit
