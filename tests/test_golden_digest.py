"""Golden digests: every solver's cover, bit for bit, on fixed instances.

Each entry is the sha256 of ``np.asarray(cover, float64).tobytes()``, so
any change to a center's bits, to the order of the centers or to their
number changes the digest. A change that keeps every digest keeps every
cover these instances produce.
"""

import hashlib

import numpy as np
import pytest

from reference import worst_case_pointset
from udcover import (ALGORITHMS, classic, cli, gen_annulus, gen_convex, gen_disk, gen_square,
                     gridindex, oracle, verify_cover)
from udcover.geom import SQRT2

INSTANCES = {
    "square": lambda: gen_square(2000, 2000.0, 11),
    "disk": lambda: gen_disk(2000, 2000.0, 12),
    "annulus": lambda: gen_annulus(2000, 25.0, 12.5, 13),
    "convex": lambda: gen_convex(2000, 2000.0, 14),
    "worst_case": lambda: worst_case_pointset(3, 3 * SQRT2),
    # density 50 and 0.02: the online solvers' prefilter runs on nearly
    # every block of the first and on none of the second
    "dense": lambda: gen_square(4000, 80.0, 15),
    "sparse": lambda: gen_disk(3000, 150000.0, 16),
    # neighbours exactly 2 apart: on the boundary of blms2017's anchor
    # neighbourhood and of its upper and lower quad disks
    "lattice": lambda: np.array([(2.0 * i, 2.0 * j)
                                 for i in range(40) for j in range(40)]),
}

DIGESTS = {
    ("g1991", "square"): "7203181f93c5a2d4faa57447e420e65cf01c85639546f088c66dbf1f541a30e0",
    ("g1991", "disk"): "459aef903f3e330ec3e5e40fd838f3ae17d209190c010e4dab0b18b4b524c1b0",
    ("g1991", "annulus"): "931d505c01d2564fc86633769aad8a067522d628fcfb358fa7d857bfd41b3432",
    ("g1991", "convex"): "f3ec4bb36b577683da269bdf8883a133d297d4bed5e75aa638833d90f667dd92",
    ("g1991", "worst_case"): "7ccb35ee9072e87c931043e72d242d35014fc5d877d17eee3a7a94af1790f19c",
    ("g1991", "dense"): "2931ce51dc5d6a33b468736e7fd30f7eb59e90c39890d8b0963ec52e2e3528e4",
    ("g1991", "sparse"): "86c338265c82dd012513561670fde90a0c0ad1c60bdb26a75feda00b339145f7",
    ("g1991", "lattice"): "60ef24d742949ac6731b6c7bf5d44e04e01417d274c32feac98db1492d8c32df",
    ("ccfm1997", "square"): "cd2c59fe162a6139e00f603a211eebe7f4fada84dec597ac831cab7781617cda",
    ("ccfm1997", "disk"): "fee9585ebc12f3e198169fb1e525f61c2e9733e7f06f76e6c1772f7f9e587b7a",
    ("ccfm1997", "annulus"): "67d61624efeda0295c8860275414ea08e8c68239c9639948b36e021b8420ffef",
    ("ccfm1997", "convex"): "c916d4ea58e9ecae0b7e70f49fc3612ccb7f0b5b6f338f93f41bd9f5b861401e",
    ("ccfm1997", "worst_case"): "d07c9ff1ce7297738a3ea8024fa2894385c173fa109d6823453e0776a2a25c1d",
    ("ccfm1997", "dense"): "b0425fda0715bec85e130068753980a7fa67b400235e62e8466ebed90d9c853a",
    ("ccfm1997", "sparse"): "db71a7c60e1e54a2342f24a177c156eb0687ea74ed5c2af6b964a568de57ee10",
    ("ccfm1997", "lattice"): "cefb6dbc86cac19cefa5ded8575a4e5e6df65173c55d44f6f64607bca36f3493",
    ("ll2014", "square"): "1bd664682bec556d2407ffb961fabe63b4baf15db33821b7cfca85555697fc23",
    ("ll2014", "disk"): "8cd62e07b60a0e6b81ed2dda6f536c342b91e28dbb761d5e909b6dc5c635c208",
    ("ll2014", "annulus"): "d29e11089b0f1e23894b7699038e3c29d529ab86fbf6c1609f8e56e2bae6a6c6",
    ("ll2014", "convex"): "443da11490931efdfcb7a2da319d915cd28a810899ba49c85fdd2da5ec40763f",
    ("ll2014", "worst_case"): "e746d7d8c279cdf9b44a42d83b6d455a5cf5017cbf07deb4ced3c7e1b03810cb",
    ("ll2014", "dense"): "d637c901631a34b0b3e6378ed67c06acccc388e1d7ee5bab585954dde0373916",
    ("ll2014", "sparse"): "c8d5619ea1988e32848bf1a81a8acec1d3d78bdf7549e365f0caabb867a9fe83",
    ("ll2014", "lattice"): "4a8fed2aec578f9f49faa5095c70e924c48b3c1c124dbb5f6c16a7da5f24319b",
    ("ll2014-1p", "square"): "1bd664682bec556d2407ffb961fabe63b4baf15db33821b7cfca85555697fc23",
    ("ll2014-1p", "disk"): "da93b85c1fd4b7d407716dc6938a915c1c1644be0f9f6b30b7678d34512a6464",
    ("ll2014-1p", "annulus"): "ac73659aa18243af8302b98add18301f43237d89af3b13fca112b1bcefe0448b",
    ("ll2014-1p", "convex"): "7cf504ec2ea05abfe3a6a744dee289d21f8051cb59bfb0523fa8ff97623113d6",
    ("ll2014-1p", "worst_case"): "e746d7d8c279cdf9b44a42d83b6d455a5cf5017cbf07deb4ced3c7e1b03810cb",
    ("ll2014-1p", "dense"): "926661e2e27f02284d5e4ea7962e6c69cb7c5afa1755172d8840e09181a6c2dc",
    ("ll2014-1p", "sparse"): "4651ad0ed84727fcfbf28a7b37a2ce9ca8b49545da3c1eba5982777a9e956a72",
    ("ll2014-1p", "lattice"): "ecc2d9f604136d64992e49cf9cab27c872b3d82b38f5558fc37baec77a61e87e",
    ("blms2017", "square"): "f768648b54522c8039dd3a2e2020920022fbacc22b9cf3df041e119394df0680",
    ("blms2017", "disk"): "f5002ff80c8cd179becb2517aa7afb1ac70222a92050a91364c10776875c93a2",
    ("blms2017", "annulus"): "69fb5a7e238f7167b7604e6fa38c3b64fc940fad6b5f89f50b22f3205124a88a",
    ("blms2017", "convex"): "c1befd81629b72d4f421149c1b1049493c39c1135d861c8eba6441fced3ec28f",
    ("blms2017", "worst_case"): "5f625d0960f6df12fede3346e51b1083f40dd0eb8bc6b1d640e1cd21a4e36856",
    ("blms2017", "dense"): "d14f9ebc5cadcb2213b988518a168f782551b7ac2392dc1cc1cdb70a58fdd5da",
    ("blms2017", "sparse"): "8261f2f461605a860375f577f3ff20a2aed96d7f195de336d8d5541b76a2c188",
    ("blms2017", "lattice"): "61c9318db1a053fd69b7e682b5624ffc97e9b14e9d921abedd697c5e71264cb0",
    ("dgt2018", "square"): "31a08eb4189d40423b450447368a3516e12ad63ba11479d164ca55219c83e4aa",
    ("dgt2018", "disk"): "eed78047f9476c6d3376f49035ef394abba6ed7630b47862390f0bd5cd25362f",
    ("dgt2018", "annulus"): "7970ba81d9804d90c720cd035eb47e2820c417beaf3700fd97b98814bd88e0bf",
    ("dgt2018", "convex"): "8fbffa3f84df9df0047d7e5ae7eaea2e0260847bc899cca57923424afa5a38f1",
    ("dgt2018", "worst_case"): "d07c9ff1ce7297738a3ea8024fa2894385c173fa109d6823453e0776a2a25c1d",
    ("dgt2018", "dense"): "88f3e951b6ee25d9df260d810a85ac2681b8304addf612a19a6ea490f7840ab1",
    ("dgt2018", "sparse"): "28d8ab7d04a4d3a9d92932a36dba43631d7111ee76a050ac57cdc0630c686df1",
    ("dgt2018", "lattice"): "a9bbc30dc72fbd1b7c42ecbafb02b1ed51eb39711f965aa498b17d8c0cd78db3",
    ("fastcover", "square"): "5992740c92d50a84dd3335fe6ea30c0e9cb39b1cfd1d729eb09ccd6b2095b54d",
    ("fastcover", "disk"): "99db2176d602056f8a1bec251ffeb418eb85defc1a0a358a92c3261108f36f05",
    ("fastcover", "annulus"): "0e4b65d05769f12dd4c4a145d888797692bc384017c1a8b8018c4a9db0866ea0",
    ("fastcover", "convex"): "1a6cd38ab051e1be5147b33a6811912e8d0b315208e620a4ba9bdb1748653a83",
    ("fastcover", "worst_case"): "501ce97149e7b3ef01e53c2fb4114badb08c8b2167c82c3267cd611589c6b8ef",
    ("fastcover", "dense"): "e42daf376effaa4feb93cdaec6d49e1255d7d22b2298db28eef4d4509250b07c",
    ("fastcover", "sparse"): "0bf7bb47cf4ee5197025b7c34caee3c89df2b67c5643e65f13ce3737ab18675b",
    ("fastcover", "lattice"): "e28936e01821aa6d2cbac05f7dfd17fe60b2935b9a5148e2d21d053c5d840285",
    ("fastcover+", "square"): "bd0f668056704c4a1079d2de22ce96969abfc0cb3a72b8080bdb5db82adee7f1",
    ("fastcover+", "disk"): "6ab1053dc08398c64a904c5430233bb9206e0d2eec90f3fe33e8e32348a9bc55",
    ("fastcover+", "annulus"): "893795e42472e80d9f7a509db85477e34505a79f912c080eb1cf534d97b6b4ab",
    ("fastcover+", "convex"): "1243ae5663c7282728553b444b9251cbc0e383d72551d93a8c7894200446c635",
    ("fastcover+", "worst_case"): "37ed5cbc41de1b1dc5175c9d4c1ca37c61297a9eddc629e440d1474374a536a4",
    ("fastcover+", "dense"): "0f3d0c41c16e7d22a7fb30448504ad371aa0774adfd8d9048fb3dffd36f34c0e",
    ("fastcover+", "sparse"): "3059fdcebcbebaba07ea9600f3c345d9305ce9abcb62813fc6ae11327a536803",
    ("fastcover+", "lattice"): "e28936e01821aa6d2cbac05f7dfd17fe60b2935b9a5148e2d21d053c5d840285",
    ("fastcover++", "square"): "a428fd81d7c913e9f64d2ff5677ad1cbee1d6fbab8f03e93b6b3f0fe69b71eff",
    ("fastcover++", "disk"): "fcec8b93e86690224eeecefa94712306dc8ba41b748c28bbb5357f8c6522e56e",
    ("fastcover++", "annulus"): "662c8bcd75d74881ccd4efbc69bdd3c9ab8f477f825158502bbabc89a5ad7bf9",
    ("fastcover++", "convex"): "8de956b19aba874867a29a8d124c4db98a4d8059abb9096a3a7785e7db8cb9e0",
    ("fastcover++", "worst_case"): "5bd3d5dd1ec90ba18fc50eb57b93776f4f4fe77c35646fe0781aa01cef9d8ac3",
    ("fastcover++", "dense"): "addb812965d0484a1c40fcb473d73bf05f16ca34102a2d7f9a58887c0fcc9123",
    ("fastcover++", "sparse"): "5639af5fa6cbd844f7102e11f1491a2d95ad54ead59e7fa1154c49806cc7337f",
    ("fastcover++", "lattice"): "d8d19796177f566c8c76172a2286add9206116586f160385b0e34d04d44233ac",
}


@pytest.mark.parametrize("algorithm, instance", sorted(DIGESTS))
def test_cover_digest(algorithm, instance):
    cover = ALGORITHMS[algorithm](INSTANCES[instance]())
    digest = hashlib.sha256(np.asarray(cover, np.float64).tobytes()).hexdigest()
    assert digest == DIGESTS[algorithm, instance]


def test_every_algorithm_is_pinned():
    assert {a for a, _ in DIGESTS} == set(ALGORITHMS)
    assert {i for _, i in DIGESTS} == set(INSTANCES)


WITNESSED = ["g1991", "ccfm1997", "ll2014", "ll2014-1p", "blms2017", "dgt2018",
             "fastcover", "fastcover+", "fastcover++"]

# the online solvers' path per instance; each path keeps a witness
# (ccfm1997's rounds stall on the lattice, at its second row)
ONLINE_PATHS = {
    ("ccfm1997", "square"): "rounds", ("dgt2018", "square"): "rounds",
    ("ccfm1997", "disk"): "rounds", ("dgt2018", "disk"): "rounds",
    ("ccfm1997", "annulus"): "grid", ("dgt2018", "annulus"): "rounds",
    ("ccfm1997", "convex"): "grid", ("dgt2018", "convex"): "grid",
    ("ccfm1997", "worst_case"): "grid", ("dgt2018", "worst_case"): "rounds",
    ("ccfm1997", "dense"): "grid", ("dgt2018", "dense"): "grid",
    ("ccfm1997", "sparse"): "rounds", ("dgt2018", "sparse"): "rounds",
    ("ccfm1997", "lattice"): "stall", ("dgt2018", "lattice"): "rounds",
}


def test_witnessed_solvers_are_registered():
    assert {ALGORITHMS[name] for name in WITNESSED} == set(cli._WITNESSED) == set(
        ALGORITHMS.values())


@pytest.mark.parametrize("algorithm, instance", sorted(ONLINE_PATHS))
def test_online_paths_are_as_pinned(algorithm, instance, monkeypatch):
    taken = []
    path, rounds = classic._path, classic._rounds
    monkeypatch.setattr(classic, "_path", lambda *args: taken.append(path(*args)) or taken[-1])

    def first_undecided(*args):
        first = rounds(*args)
        if first is not None:
            taken.append("stall")
        return first

    monkeypatch.setattr(classic, "_rounds", first_undecided)
    cli._WITNESSED[ALGORITHMS[algorithm]](INSTANCES[instance]())
    assert taken[-1] == ONLINE_PATHS[algorithm, instance]


@pytest.mark.parametrize("instance", sorted(INSTANCES))
@pytest.mark.parametrize("algorithm", WITNESSED)
def test_witness_alone_settles_every_point(algorithm, instance, monkeypatch):
    # a broken witness would only cost time, never fail a report: so the
    # witness must leave open_rows no row, and the cover keep its digest
    pts = INSTANCES[instance]()
    cover, witness = cli._WITNESSED[ALGORITHMS[algorithm]](pts)
    assert hashlib.sha256(cover.tobytes()).hexdigest() == DIGESTS[algorithm, instance]
    rows = []

    def spy(points, *args):
        rows.append(len(points))
        return gridindex.open_rows(points, *args)

    monkeypatch.setattr(oracle, "open_rows", spy)
    assert verify_cover(pts, cover, witness=witness()).valid
    assert sum(rows) == 0
