"""Demand kernels: the per-bid scans every price query reduces to.

``pure`` is the one implementation.  Callers use its functions through the
module attribute (``pure.demand_masks(...)``) rather than importing the
names, so that wrapping ``pure``'s functions reaches every call.

``HAVE_COMPILED`` and ``backend_name()`` remain so that tools recording the
kernel lane of a run keep working; there is no compiled lane.
"""

from . import pure

HAVE_COMPILED = False


def backend_name():
    return "pure"
