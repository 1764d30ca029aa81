"""Byte-identity pins of the levelwise colimits of spectra and simplicial
spectra, and of what is built from them.

Each pin is the sha256 of `documents.dumps` of the outputs, objects and
legs alike, computed before the colimit bodies of the simplicial, spectrum
and simplicial-spectrum layers were replaced by one lifting.  The inputs
are generated spectra (some of them quotients), wedges of two good
simplicial spectra at the truncation of a 4.2 case, the thm14-demo
builtin, and the truncated sphere spectrum.

The latching pins cover every level of every degree of good-demo and of
both ends of thm14-demo, and of three generated spectra at N = 3, D = 4:
the comparison map nu and the describe text of every latching class.
The unit-oracle pins cover both maps of the unit bijection of bar-s.
They were computed before the smash over S coequalized only the
one-letter relations.

The digests are computed in a fresh interpreter.  The memos of the
generators return a spectrum equal by content to one built earlier in
the process, and equality ignores labels while documents carry them, so
in a process that has already run other tests the same inputs can
serialize with other labels.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import latchcheck
from latchcheck.builtins_corpus import builtin
from latchcheck.documents import dumps
from latchcheck.generators import GenConfig, gen_good_simplicial_spectrum, gen_spectrum
from latchcheck.reedy import pointwise_cofiber, realize_map, wedge_simplicial_spectra
from latchcheck.spectra import (
    bar_s,
    coequalizer_spectra,
    pushout_spectra,
    spectral_latching,
    spectrum_zero_map,
    unit_oracle,
    wedge_spectra,
)

# per seed: the wedge X v Y, the fold X v X -> X, the cofiber of X -> X v Y,
# and the pushout of X v Y <- X -> X v X
SPECTRUM_COLIMIT_PINS = {
    0: ("c0eb6519a180c1fc8319c3855747e691eefb3734a9f7cca1803c5bf1b1789983",
        "8b6c599c97d9f9f085e2881cf6b7a536a7e3d980b13029da1e561bfa25227047",
        "d238d915b4fc2590cf3de0cda4420172d78dcbc0e940bc3c9c9e4c910a829eb4",
        "e9a16288bc529264718c1ba86806d58a721ffdc11da4cdabf3911f5ca5d6c798"),
    1: ("ff44bb980a0cb337f555286ff3afb529a273d343391d1896840706426bc7e0e0",
        "3d70f962cde56540de05ece09d74f712d9d05f1a61bd76873f533ffcb2e13f56",
        "afe39dd81bf049a441271f351cbe6f684136932ad34b1ed4680067caabf0adc9",
        "385111c5370ee82ed0515a1b1d35820af50cfc3dfff09d84ceba1b9e9305ebb3"),
    2: ("2ced38db34d3f45d77e8f4b1471748277fce2d795282213ab2fe4bdf663ec5b4",
        "a96692b4c85b9865c3cd5eaaad7122273284c8e31b85d4351b8ae37e7fcc24ea",
        "6d8a1932a83ef7edc2aa91ce8016bba21a9345c35835d47c8c510fbb5b573af1",
        "d11ddd733fa05717650436cb92ac491bb1205cad4a29665588a443a2f4cc85c9"),
    3: ("d0afef287bca041077baf75e5ef1894c62f11f04a3922afc272ed6bbeddb984f",
        "ab96f0e5eb0a2d8b22717bc026fee991d479dbb7576d3236e8de04e093a76b94",
        "f623b3d89a5f5c8c8d509719a18da8a265e7b83a670115522985dde2774d13a7",
        "7cb21ea9c69b1ebc57ed4de230f26d725981b2935c75bcaa6fc5a5e7d8bdc1d5"),
    4: ("62480a34abe546e81c6454226c7bd9685e2def522e8848c30e4df9a7d39a73af",
        "a96692b4c85b9865c3cd5eaaad7122273284c8e31b85d4351b8ae37e7fcc24ea",
        "07c5f5de8518df368f82364298aadbd0c1906b037e391a6df09e4168c9e27c26",
        "1b1443c72aa6ad3c4a680dc1d79afff89643a13b06d5c25913fc2ca831e35d37"),
    5: ("37eaad781cd7356722b56f45b47cfb072607ce513725012f7fd8f35fd0d6b5fd",
        "4a98c156128058c5a14e08688c933d66357b15957e3596d263ea31393aabac6d",
        "b3111b649c90cb169308207282d7d36aaa503ae21d677af2114d8d1f6606cf84",
        "ac81fe786e1c88a5701e8c7ffa0721bad50bef9c5c04c96040099a0dcfdc3dd2"),
}
SIMPLICIAL_WEDGE_PINS = {
    1: "c6af105d661efbe2e320b2fc7bcde45f53bd702c049a082ce197619e7f0e4002",
    2: "d11bbea0496d275968e045e081697ace081d2f8dd09a75556cfc334aed683b6e",
}
THM14_REALIZE_MAP_PIN = "723abd57c3c019752f05d7076560e5bb28f4b253388b3e105daff6d6313f0295"
THM14_COFIBER_PIN = "954c266605334ea42967a93ff012c14f29b9fde7bb48c82df0d129723e2badf1"
BAR_S_NU_PINS = (
    "91c509575411ed4fc3bcd58e80095e5617b2dab17d28b6945f8a6b44c61ad623",
    "ee7e8531a09720ad3030e11d194c797611c80b19dd36cf44dbfc73a0cd1e917f",
    "673de0dd7c529e683b578eab11e01ac2f6adf5e854f3b1c4895f5f2d8a7a8c31",
    "d3a40f5997ade7c929c9cd77755a41c1acdfeeb552e154fbbf2fda54e46c95f8",
)


GEN_LATCHING_SEEDS = (0, 1, 7)
LATCHING_PINS = {
    "good-demo": (
        "614cfd4e02050c4214771dad7e91344c5a851b6e50fac6e8952ea12c33789b2b",
        "614cfd4e02050c4214771dad7e91344c5a851b6e50fac6e8952ea12c33789b2b",
        "614cfd4e02050c4214771dad7e91344c5a851b6e50fac6e8952ea12c33789b2b",
        "614cfd4e02050c4214771dad7e91344c5a851b6e50fac6e8952ea12c33789b2b",
    ),
    "thm14-demo-dom": (
        "3beb2eef47803311473e541e47920b58dd1bafb6e5c7ffc547adf9e8185e8def",
        "3beb2eef47803311473e541e47920b58dd1bafb6e5c7ffc547adf9e8185e8def",
        "3beb2eef47803311473e541e47920b58dd1bafb6e5c7ffc547adf9e8185e8def",
        "f29eafa1c783abc00810535679ed82cfd2eece328afb4a2b9b558b2f16c2429f",
    ),
    "thm14-demo-cod": (
        "95b64745384fbc1eae3c28c8c7fefb008b7b50a2c6f65a0416d41dbfa099f2bf",
        "95b64745384fbc1eae3c28c8c7fefb008b7b50a2c6f65a0416d41dbfa099f2bf",
        "95b64745384fbc1eae3c28c8c7fefb008b7b50a2c6f65a0416d41dbfa099f2bf",
        "86094387aaaff4081e0f87e79882e74aaafac4617dcfdc199e82a5d6334ad247",
    ),
    "gen-0": (
        "f74f8334e3a07d92c4e8a3ccf995d1020a600e6d26397f9409b19d65ec1c8fed",
    ),
    "gen-1": (
        "2640eb3cf2fc82d2e3ff26d71324f584e214f75208377e8b7914c0e1154fc214",
    ),
    "gen-7": (
        "b2da16506090e57302692b00cd0919b29af04f744ae1defab8a68019fc971c63",
    ),
}
BAR_S_UNIT_PINS = (
    "8bbe71b735855fd53802ae240a90fe84567aeaec00d7b69fe1214a4da224bc2b",
    "3d87b778dd5a7f521d6ec60e4f003b9e16ccdb0a66633e7b0f9896db41ba1cf1",
    "beb8584b8ff5c09001838b055cbdf77a269fd0d0b5bfccb3809252fa5f3b6748",
    "770b8d042f9f4019677bdb45fec7b68f50c815f6db14d66a5cf6d2144773a2b6",
)


def _sha(*objs) -> str:
    return hashlib.sha256("".join(dumps(o) for o in objs).encode()).hexdigest()


def _cocone_sha(cone) -> str:
    return _sha(cone.obj, *cone.legs)


def _latching_sha(x) -> str:
    """One digest over every latching level of x: nu, then the describe
    text of each class, dimension by dimension."""
    h = hashlib.sha256()
    for n in range(x.strunc + 1):
        lat = spectral_latching(x, n)
        h.update(dumps(lat.nu).encode())
        for k, lvl in enumerate(lat.obj.levels):
            for i in range(lvl.size):
                h.update(f"{n} {k} {i} {lat.describe(k, i)}\n".encode())
    return h.hexdigest()


def digests() -> dict:
    """Every pinned digest, keyed like the pin tables."""
    out: dict = {"colimits": {}, "simplicial-wedges": {}}
    for seed in SPECTRUM_COLIMIT_PINS:
        rng = random.Random(seed)
        x = gen_spectrum(rng, 2, 3)
        y = gen_spectrum(rng, 2, 3)
        w = wedge_spectra([x, y])
        ww = wedge_spectra([x, x])
        out["colimits"][str(seed)] = [
            _cocone_sha(w),
            _cocone_sha(coequalizer_spectra(ww.legs[0], ww.legs[1])),
            _cocone_sha(coequalizer_spectra(w.legs[0], spectrum_zero_map(x, w.obj))),
            _cocone_sha(pushout_spectra(w.legs[0], ww.legs[0])),
        ]
    for seed in SIMPLICIAL_WEDGE_PINS:
        cfg = GenConfig(seed=seed, ktrunc=3, strunc=3, dtrunc=4)
        x = gen_good_simplicial_spectrum(cfg.rng(0), cfg)
        w = gen_good_simplicial_spectrum(cfg.rng(1), cfg)
        y, legs = wedge_simplicial_spectra([x, w])
        out["simplicial-wedges"][str(seed)] = _sha(y, *legs)
    f = builtin("thm14-demo")
    out["realize-map"] = _sha(realize_map(f))
    out["cofiber"] = _sha(*pointwise_cofiber(f))
    b = bar_s(3, 4)
    out["nu"] = [_sha(spectral_latching(b, n).nu) for n in range(b.strunc + 1)]
    out["unit"] = [_sha(unit_oracle(b, n).into, unit_oracle(b, n).back)
                   for n in range(b.strunc + 1)]
    g, f = builtin("good-demo"), builtin("thm14-demo")
    out["latching"] = {
        "good-demo": [_latching_sha(x) for x in g.degrees],
        "thm14-demo-dom": [_latching_sha(x) for x in f.dom.degrees],
        "thm14-demo-cod": [_latching_sha(x) for x in f.cod.degrees],
    }
    for seed in GEN_LATCHING_SEEDS:
        out["latching"][f"gen-{seed}"] = [_latching_sha(gen_spectrum(random.Random(seed), 3, 4))]
    return out


@pytest.fixture(scope="module")
def fresh() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(latchcheck.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("seed", sorted(SPECTRUM_COLIMIT_PINS))
def test_spectrum_colimits(seed, fresh):
    assert tuple(fresh["colimits"][str(seed)]) == SPECTRUM_COLIMIT_PINS[seed]


@pytest.mark.parametrize("seed", sorted(SIMPLICIAL_WEDGE_PINS))
def test_wedge_of_good_simplicial_spectra(seed, fresh):
    assert fresh["simplicial-wedges"][str(seed)] == SIMPLICIAL_WEDGE_PINS[seed]


def test_realization_and_cofiber_of_thm14_demo(fresh):
    assert fresh["realize-map"] == THM14_REALIZE_MAP_PIN
    assert fresh["cofiber"] == THM14_COFIBER_PIN


def test_latching_comparison_maps_of_bar_s(fresh):
    assert tuple(fresh["nu"]) == BAR_S_NU_PINS


def test_unit_oracle_of_bar_s(fresh):
    assert tuple(fresh["unit"]) == BAR_S_UNIT_PINS


@pytest.mark.parametrize("name", sorted(LATCHING_PINS))
def test_latching_levels_and_class_names(name, fresh):
    assert tuple(fresh["latching"][name]) == LATCHING_PINS[name]


if __name__ == "__main__":
    print(json.dumps(digests()))
