"""Pinned structure tables of the families whose coproduct, antipode and
counit are derived from their letters: the quantum linear spaces (E(n),
A_{C2^n}, H_(r,n)), group algebras, H_{2n^2} with H8, and (A''_C4)*.

Each digest is the sha256 of a canonical serialization of a built instance:
labels, unit index, generators in order, name, family, and the sorted items of
mult/comult/counit/antipode with every scalar written with ``str``.  Dict
insertion order does not enter, so a constructor may produce the same tables
in another order.  A changed digest means a changed algebra or basis.
"""

import hashlib
import json

import pytest

from hopflab.families import build
from hopflab.scalars import FieldSpec

F97 = FieldSpec("prime", p=97)

SPECS = (
    [f"en:{n}" for n in range(1, 5)]
    + [f"ac2n:{n}" for n in range(2, 6)]
    + [f"radford:{r},{n}" for r, n in ((1, 2), (2, 2), (2, 3), (3, 2), (1, 3), (1, 4))]
    + ["group:2,2,2", "group:2,1,3", "group", "h8", "h2n2:2", "h2n2:3", "h2n2:4", "ac4dual"]
)


def table_digest(h) -> str:
    dim = h.dim
    mult = sorted((i, j, k, str(v)) for i in range(dim) for j in range(dim) for k, v in h.mult[i][j].items())
    comult = sorted((i, k, str(v)) for i in range(dim) for k, v in h.comult[i].items())
    antipode = sorted((i, k, str(v)) for i in range(dim) for k, v in h.antipode[i].items())
    data = {
        "labels": h.labels,
        "unit_index": h.unit_index,
        "generators": list(h.generators.items()),
        "name": h.name,
        "family": str(h.family),
        "mult": mult,
        "comult": comult,
        "counit": [str(v) for v in h.counit],
        "antipode": antipode,
    }
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


TABLE_DIGESTS = {
    ("en:1", "default"): "d4ee53e5c76408164a297246b856b83c66e77a80e83cfb342550ef915698763d",
    ("en:1", "prime:97"): "7cbcd6997059868ad1095df6bb0da277cc76c03e947b45f6c650d339841c21bb",
    ("en:2", "default"): "1914725d45ceccfdb8eb18cbcf61c233d846c83312c36ec9a5678fd2b5e9fd62",
    ("en:2", "prime:97"): "710e43627dc12985fe6ced5dc6a10961d109e25632c15b849e2156999742ff00",
    ("en:3", "default"): "50089c24b3b0ac8ca7e7ac4f5b38a8e821ef4d81c200d73a0aeb06e44a2b1b7f",
    ("en:3", "prime:97"): "efa9307aa1bec27ccc131665efb66887b7836e93d536d9936aa23b2343f007e2",
    ("en:4", "default"): "a612876ae2ab7bd0fcdbac056e14b18005f9b3218586df9ce2d8e57accf628bc",
    ("en:4", "prime:97"): "0923fedb2db0214c20547306a55678beb439895365244c52be408ac04128445d",
    ("ac2n:2", "default"): "835096c17d995f2964736bed844378530bf53d67d766f1bd97e67786f0b74d08",
    ("ac2n:2", "prime:97"): "fd35bc8ae1d1d165eefedd8753f4c9d48c8b9b23a634859281aef15a80bde999",
    ("ac2n:3", "default"): "7b4f382458ceb00f247dbb880331833f096cb7c085ca66a7cc8121a2ce3d444e",
    ("ac2n:3", "prime:97"): "9450ab0149c680fb19bdc9d0b71cca56717568364cf6417d670558541fd8a0e5",
    ("ac2n:4", "default"): "206f7a7890c954aa9254c8526d9581d51354e16788ae0c8b40e817c6ed0cdf11",
    ("ac2n:4", "prime:97"): "73f2afc43f727b6f7332aa27805fe775a8f8cefbcd77e550d9d31d18d9a286d9",
    ("ac2n:5", "default"): "7d46c023be589fb07752dcf01d34fa28fdb9ae4bdefba9a03dc50d10dcb3a11f",
    ("ac2n:5", "prime:97"): "5909b9f873aaa6e1bb5d4c764591c62ec711b282bf2f4f30be0ad6fc3e15d4ec",
    ("radford:1,2", "default"): "a93cb0733f18317134cebf7919e6c62df84f722db2529593dc39e3f6a3eff225",
    ("radford:1,2", "prime:97"): "a4a93015b7ce2c8dae741a441808552595cabb69e7ffcb7409fc2b37602fa2a5",
    ("radford:2,2", "default"): "eb943572b042054d163ca5fc8e8f2e56b760eac69a98de0cd9930b363608f020",
    ("radford:2,2", "prime:97"): "e940c3d96bebd46326c57b077d3d0133f76402fd47996bfa270374efcddc2d29",
    ("radford:2,3", "default"): "863e8774ee0c44cdcb34a2f399dd58c27a365a1b80fd045b7b0c9213271032bb",
    ("radford:2,3", "prime:97"): "a162d674892fb16458e374288b49c21a583621c8228f3556b47386d4d9bf1e48",
    ("radford:3,2", "default"): "86c036b95833c33197f58eb76985c1196b628a00fb57658460400ca1e843aad3",
    ("radford:3,2", "prime:97"): "1efb8cbffa7d49bfb2dccdb95e199e8bb5dee2bab8b1e57e6cbdfe694f099188",
    ("radford:1,3", "default"): "6b8401c94b2174c6e6acca87e7d42cdbe596c7cf8e009323d7c9d4f939f9d472",
    ("radford:1,3", "prime:97"): "9be94839c6f800c4153640bebb36c3110809fe03f999cb11fddc09b53d25d1d8",
    ("radford:1,4", "default"): "4286a72f06930dccbfe5fac0063e353d0b85c570d9bbf0388daeb467ed2c5447",
    ("radford:1,4", "prime:97"): "e71abee852eb3052d8a3e0069099d2b3f7ad88df3324c5c57c2d11f413582df3",
    ("group:2,2,2", "default"): "fce8fd0f920b711cc64e7281ce080ea1c31943056b1b52db220492803aae52a8",
    ("group:2,2,2", "prime:97"): "31f2911bc1abab954c7095dbf9324df226cd47e4b15dd984f66f89b3cf7dbd76",
    ("group:2,1,3", "default"): "b3648877b1b82cd7ce36bd60981873913e1a889bb238c19e16dfb1700db5d45c",
    ("group:2,1,3", "prime:97"): "0f84fd535168263dfc72eba7614e53f9828708e1d661b2874cdecac8f6232353",
    ("group", "default"): "9ad0fefde16e8cc80bdf8e0280632ea16f829ccbf3bdc23a0a9f0168c82f131b",
    ("group", "prime:97"): "e2b21096e4e237cbba5a6fab68f8cb02dc52ff55966c5bd5979ae26e6b0899f8",
    ("h8", "default"): "015d19af8e70022c781e12c3b0c90789cfb723637c13447db5910b2ee1701401",
    ("h8", "prime:97"): "7baa68f241088376774b4fc6f94b6aa9053007ca899e185c6c2dfca257c76828",
    ("h2n2:2", "default"): "6387b3c825a29d01995709c5f079f03877d2d67b22e2ae61ad9cd54010bf2022",
    ("h2n2:2", "prime:97"): "fb9b1a8395aa13535f792e5e373d6d8ee8ded997a14b7cfce99af5c7cff637c2",
    ("h2n2:3", "default"): "fd1b3362ccbe6aa174b2160235c3ff5f5f86d7073cc0a62c705776ace51cd33b",
    ("h2n2:3", "prime:97"): "498952d3cbfadd6b86cda3e0c1355485e65eaf4f26016803e62de11fe329ae16",
    ("h2n2:4", "default"): "ec28fbbbbf68d0663b3dcbd39d8e345b79abed7cea54bd075fea00a9ccf67792",
    ("h2n2:4", "prime:97"): "e834069369721c6d58be0007fbc2a4c3a0920ee0a8cecabddd8bb7920fd02e5b",
    ("ac4dual", "default"): "199ea0d0f0ff3174ceed0f8d041d004dfd8a1323a68192c549d54dcb47929154",
    ("ac4dual", "prime:97"): "ba700580cba93ccc530f1e628444130abc22ccdb65f6e5df16ff506036e6cfb3",
}


@pytest.mark.parametrize("field", ["default", "prime:97"])
@pytest.mark.parametrize("spec", SPECS)
def test_table_digest(spec, field):
    h = build(spec, None if field == "default" else F97)
    assert table_digest(h) == TABLE_DIGESTS[(spec, field)]
