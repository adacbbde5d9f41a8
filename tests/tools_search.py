"""The word search of tools/search.py, loaded from its file: it is no
part of the package, and its generator pair lives in tools/data."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "search", Path(__file__).resolve().parents[1] / "tools" / "search.py")
search = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(search)
