"""Read back the dict that FracSeries.to_dict writes, the form in which
the command line prints a series."""

from fractions import Fraction

from orbifoldry.qseries import FracSeries


def series_from_dict(obj):
    coeffs = {int(k): Fraction(v) for k, v in obj["terms"]}
    return FracSeries(int(obj["grain"]), coeffs, int(obj["cutoff"]))
