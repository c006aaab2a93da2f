"""Unit conventions and conversions.

Internally every frequency is angular, in rad/ns, and every time is in ns,
so the device numbers quoted as ``2*pi x f GHz`` enter the formulas directly.
User-facing I/O (CLI, CSV) uses plain frequencies in GHz; conversion happens
only at that boundary.
"""

import math

TWO_PI = 2.0 * math.pi


def ghz_to_rad_per_ns(f_ghz):
    """Plain frequency in GHz -> angular frequency in rad/ns."""
    return TWO_PI * f_ghz


def rad_per_ns_to_ghz(w):
    """Angular frequency in rad/ns -> plain frequency in GHz."""
    return w / TWO_PI
