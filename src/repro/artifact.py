"""One value per JSON artifact: its format, schema, headlines and writer.

Every JSON file this repo writes — the committed ``BENCH_*.json``
snapshots, the CI soak telemetry, the conformance reproducer — is
described by one :class:`Artifact` declared next to the code that
produces it.  The value owns the two things every artifact needs: the
schema check (:meth:`Artifact.validate`) and the byte-stable writer
(:meth:`Artifact.write`, which refuses a payload that fails the check).
``bench --compare`` reads an artifact's headline metrics off the same
value, so a format is described in exactly one place.

This module imports nothing from ``repro``: the bench rigs that
``live/__init__`` and ``collectives/__init__`` load eagerly declare an
artifact without pulling in ``analysis`` or numpy.

The schema language is the JSON shape spelled in Python:

* ``str`` / ``int`` / ``float`` / ``bool`` — a leaf of that type; an int
  is an acceptable ``float`` (JSON has one number type), a bool is never
  a number;
* ``"literal"`` — exactly that string;
* ``dict`` — an opaque object (keys not checked);
* ``[spec]`` — a list whose items match ``spec``;
* ``{key: spec, ...}`` — an object with exactly those keys;
* ``(spec, None)`` — ``spec`` or null.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

__all__ = ["Artifact", "Headline"]

#: ``(name, "higher" | "lower" is better, value)``
Headline = Tuple[str, str, float]

_INDEX = re.compile(r"\[\d+\]")
_TYPE_NAMES = {float: "number", dict: "object"}


@dataclass(frozen=True)
class Artifact:
    """A JSON artifact's identity and contract."""

    #: the payload's ``format`` value, ``<family>/<version>``
    format: str
    #: shape of the payload apart from ``format`` (see the module docstring)
    schema: dict
    #: payload -> the metrics ``bench --compare`` gates; None when the
    #: artifact is telemetry, not a benchmark
    headlines: Optional[Callable[[dict], List[Headline]]] = None
    #: lists that must not be empty, as dotted key paths without indices
    #: (``"scenarios"``, ``"runs.tenant_rows"``)
    non_empty: Tuple[str, ...] = ()

    def validate(self, payload) -> List[str]:
        """Schema-check ``payload``; an empty list means valid."""
        errors: List[str] = []
        self._check(payload, {"format": self.format, **self.schema}, "$", errors)
        return errors

    def write(self, path: str, payload: dict) -> None:
        """Validate, then write ``payload`` (refuses an invalid one)."""
        errors = self.validate(payload)
        if errors:
            raise ValueError(f"refusing to write an invalid {self.format} "
                             f"artifact:\n  " + "\n  ".join(errors))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def _check(self, value, spec, path: str, errors: List[str]) -> None:
        if isinstance(spec, tuple):
            if value is None:
                return
            spec = spec[0]
        if isinstance(spec, str):
            if value != spec:
                errors.append(f"{path}: expected {spec!r}, got {value!r}")
            return
        kind = spec if isinstance(spec, type) else type(spec)
        if (not isinstance(value, (int, float) if kind is float else kind)
                or isinstance(value, bool) and kind is not bool):
            errors.append(f"{path}: expected "
                          f"{_TYPE_NAMES.get(kind, kind.__name__)}, "
                          f"got {type(value).__name__}")
        elif isinstance(spec, list):
            if not value and _INDEX.sub("", path)[2:] in self.non_empty:
                errors.append(f"{path}: expected a non-empty list")
            for i, item in enumerate(value):
                self._check(item, spec[0], f"{path}[{i}]", errors)
        elif isinstance(spec, dict):
            for key, sub in spec.items():
                if key not in value:
                    errors.append(f"{path}.{key}: missing")
                else:
                    self._check(value[key], sub, f"{path}.{key}", errors)
            errors.extend(f"{path}.{key}: unexpected key"
                          for key in value if key not in spec)
