"""Loaders for the bundled fixture data.

Every fixture carries a provenance marker: "paper-text" for data printed in
published source data, "derived" for data reconstructed here by computation.
The lattice fixture format is a plain-text grid: '#' provenance/header
lines, one label row, then one labelled matrix row per generator.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from importlib import resources

from .numfield import TowerElement


def _fixture_dir():
    override = os.environ.get("DYK3_FIXTURE_DIR")
    if override:
        return override
    return None


class FixtureError(Exception):
    """A fixture file that is missing or does not parse."""


def _read_text(name: str) -> str:
    override = _fixture_dir()
    if override:
        with open(os.path.join(override, name)) as fh:
            return fh.read()
    return resources.files("dyk3").joinpath("fixtures").joinpath(name).read_text()


def _load(name: str, parse):
    """parse(text of fixture `name`), with any read or parse failure
    raised as FixtureError."""
    try:
        return parse(_read_text(name))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise FixtureError(f"fixture {name}: {exc}") from exc


def _parse_element(spec) -> TowerElement:
    if "k4" in spec:
        c = [Fraction(x) for x in spec["k4"]]
        return TowerElement.k4(*c)
    if "tower24" in spec:
        return TowerElement([Fraction(x) for x in spec["tower24"]])
    raise ValueError(f"unknown element spec {spec}")


class TowerConstants:
    """The algebraic constants: product-surface point, twist element, curves."""

    def __init__(self, raw):
        self.provenance = raw["provenance"]
        pt = raw["si_point"]
        self.A = _parse_element(pt["A"])
        self.a = _parse_element(pt["a"])
        self.b = _parse_element(pt["b"])
        self.c = _parse_element(pt["c"])
        self.d = _parse_element(pt["d"])
        self.kappa = _parse_element(raw["kappa"])
        self.eta_squared = _parse_element(raw["eta_squared"])
        self.curves = {
            name: {k: _parse_element(v) for k, v in cur.items()}
            for name, cur in raw["curves"].items()
        }
        self.j_min_poly = [int(c) for c in raw["j_min_poly"]]
        self.hecke_traces_quarter = {int(p): t for p, t in
                                     raw["hecke_traces_quarter"].items()}
        self.supersingular_primes = list(raw["supersingular_primes"])


def load_tower_constants() -> TowerConstants:
    return _load("tower_constants.json", lambda text: TowerConstants(json.loads(text)))


class SurfaceFixture:
    def __init__(self, raw):
        self.provenance = raw["provenance"]
        self.name = raw["name"]
        self.monomials = [((a, b, c), coef) for (a, b, c), coef in
                          ((tuple(m[0]), m[1]) for m in raw["sextic_monomials"])]
        self.profile = [
            {"point": tuple(Fraction(x) for x in entry["point"]),
             "type": entry["type"],
             "rational_exceptional": entry["rational_exceptional"]}
            for entry in raw["singular_profile"]
        ]
        self.bad_primes = set(raw["bad_primes"])

    @property
    def correction_sum(self) -> int:
        return sum(e["type"] for e in self.profile)


def load_surface(name: str = "drell-yan") -> SurfaceFixture:
    if name != "drell-yan":
        raise ValueError(f"unknown surface {name!r}")
    return _load("drell_yan_surface.json", lambda text: SurfaceFixture(json.loads(text)))


class GramFixture:
    def __init__(self, text: str):
        self.meta = {}
        labels = None
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    k, v = body.split(":", 1)
                    self.meta[k.strip()] = v.strip()
                continue
            parts = line.split()
            if labels is None:
                labels = parts
            else:
                if parts[0] != labels[len(rows)]:
                    raise ValueError("row label out of order in gram fixture")
                rows.append([int(x) for x in parts[1:]])
        if labels is None or len(rows) != len(labels):
            raise ValueError("malformed gram fixture")
        if "provenance" not in self.meta:
            raise ValueError("gram fixture lacks a provenance block")
        self.labels = labels
        self.gram = rows
        for i in range(len(rows)):
            for j in range(len(rows)):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("gram fixture is not symmetric")

    def galois_permutation(self):
        """Index permutation from the '# galois-swap:' metadata line."""
        perm = list(range(len(self.labels)))
        swap = self.meta.get("galois-swap")
        if swap:
            names = swap.split()
            for a, b in zip(names[0::2], names[1::2]):
                ia, ib = self.labels.index(a), self.labels.index(b)
                perm[ia], perm[ib] = perm[ib], perm[ia]
        return perm

    def mirror_permutation(self):
        """Index permutation of the mirror that the '# mirror-swap:'
        metadata line names.  The one mirror known is mirror_label's rule,
        named "all" or by curves34's spelling of it; ValueError for any
        other value, or if a label's image is missing."""
        rule = self.meta.get("mirror-swap")
        if rule not in _MIRROR_RULES:
            raise ValueError(f"unknown mirror-swap rule {rule!r}")
        return [self.labels.index(mirror_label(l)) for l in self.labels]


# the '# mirror-swap:' values that name mirror_label's rule
_MIRROR_RULES = ("all", "all L<->Lt, C<->Ct, Eipj<->Eimj")


def mirror_label(label: str) -> str:
    """The image of a curve of the 34 under the w -> -w mirror: L <-> Lt,
    C <-> Ct and Eipj <-> Eimj; E11 and E30 are fixed."""
    if label.startswith("Lt"):
        return "L" + label[2:]
    if label.startswith("L"):
        return "Lt" + label[1:]
    if label.startswith("Ct"):
        return "C" + label[2:]
    if label.startswith("C"):
        return "Ct" + label[1:]
    return label.replace("p", "X").replace("m", "p").replace("X", "m")


def load_gram(name: str) -> GramFixture:
    return _load(name if name.endswith(".gram") else name + ".gram", GramFixture)
