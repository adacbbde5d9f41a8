"""Read back the dict that FracSeries.to_dict writes, the form in which
the command line prints a series; a coefficient that is not an int fails
to load."""

from orbifoldry.qseries import FracSeries


def series_from_dict(obj):
    coeffs = {int(k): int(v) for k, v in obj["terms"]}
    return FracSeries(int(obj["grain"]), coeffs, int(obj["cutoff"]))
