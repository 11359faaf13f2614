"""Bit-identity of the network meshes over many networks (marker ``slow``).

Run with ``python -m pytest -m slow``; the default run deselects it.  The
digests hash the ``save_mesh`` bytes of every fracture's triangulation at
``--h 0.1``, fracture by fracture, for ``perfbench/network.py`` seeds
0-39 and the grid networks of ``grid_dict(k, 0)`` for k = 2-12.  They
were taken from the fracture-by-fracture mesher that the batched pass of
``triangulate_network`` replaced.
"""

import hashlib
import json

import pytest

from dfnvem import geometry as geo
from dfnvem import meshing as msh

from _util import grid_dict, perfbench_network_dict

DIGESTS = {
    "network-0": "dd2d15955684d20d6d4d8be9ea8be919a30b172a157570608d07600022cd5e26",
    "network-1": "5e1a7e153e51ee3bc708336bbf2028ccd9acd24550c3150d63cd7c5870961548",
    "network-2": "23d32eb42d34b844f1a5ccc42a245ff36ed95dbbb60895e4be1241fde5b03671",
    "network-3": "087f4cafbbdea56cf64a35a8d5ba8ee97ff91a2ee9c19d7e5fb6ad8d663f3d0f",
    "network-4": "aecbfdc0f737cf2c09205e7ebe6ff80c05c88be039a5a7e125290ecc05be7ac2",
    "network-5": "5421d4fe5544c8df1d4344c4b07793e15a50cbd7e4b76b792bfb16b493406f82",
    "network-6": "d62be17b91ac4b1fcdda7059683674332888f46d3cc51e14e572e1da3f2fbb19",
    "network-7": "1330fe8624fe1ae29d2eb8f916f4e58636f43be23ba10c9de554a5d6012a9439",
    "network-8": "e546482f07c742f90158aa977bb467dfbd8a98dd27e119b3d25d1db69aad464d",
    "network-9": "851aba0532fd2242d38a01d321ff64886ab8dc52f574ef61fb88b8ff48d4d76e",
    "network-10": "2188e5a5b8bfb192afb671c3f427cbd9e03d9c9c5e892bd6aab08c712eca0882",
    "network-11": "0c34cfcc8988b720cea8acc023d00be514b7bd6eddeda6b226f2c7e8a3f7c7a9",
    "network-12": "82c4ffd5cdabfe520290bfe30fc06abf623d0ed2ece58a5fd1ced4b4cb95d416",
    "network-13": "f4f1a33c4115596a874a829c86216efb4e0aceffa841e9123cd452dc59259588",
    "network-14": "7a15280a35c6f910fd2197a1eb790be4e71d690d08fc25e9377451f1864bf9dd",
    "network-15": "25eb8d2ff29f766c98691fa3dcb527b49c653c23776549284898968d65128540",
    "network-16": "8e85402fa18308fcd0543e2482c6ce168cfd1b652b3203e818a179ef60fb6e32",
    "network-17": "2a1db2c1131d74ba27f55cfb8bc2e3f844507430e930877028824300a55b8971",
    "network-18": "0ca271cab9abed080b3e3a329a30f76e1c37f28204b3c2e6d21f8bf0ebdb93da",
    "network-19": "02ba8d84a21cc56db2b5d776de2c7c12bc67e5912b9be3378a01ea1ded1d7907",
    "network-20": "b2ae1406fe4b23d520d0048a5dd700e9ddce64015020e6cab7d7a4f8e14d94dd",
    "network-21": "2cb3846103b96802165e67388efb4f662365da600103ec61ecd5d72e3970c694",
    "network-22": "ad6b78eee0a5ca27c26fd93a14a0d5e054a0ff85a911399f594a8bc1d121be73",
    "network-23": "3f028660db4dc1421e48937568b229bffa9c2659587282da384936e0f593a0fd",
    "network-24": "568e8e3b6d820ee9956d3deb9eb83b369a02ff13927d37a918b6e4df2892e835",
    "network-25": "0d8af1f148b851e358332184e7a31f2bf12d4ee8d144e028911dc620eb477814",
    "network-26": "ff54ab74a16a5e437a7ba19d0acc37a7654a6993665e11d6c47c3a1db21e26b5",
    "network-27": "a617af68858e3cefa5c2242396d7c742c46d2502bd884b00c35b1047d9f4aa0d",
    "network-28": "6e797bb0753a275b6a7f58c3e619841cf919e83e55950404351ff72fd2f376e7",
    "network-29": "ae6416490dc1584409ce6a7d42989932b84ba5cfc64947ac3047f19df5a5b426",
    "network-30": "0b35323b59279ef514089529a790a6f220dcbef8f1060f233990fe2695350b03",
    "network-31": "445c72e490fcb674b8b456aeb5ab7412990d2e323002080d4ece22c29eaeb776",
    "network-32": "66da27029b0930679d860de88258ab60a0cbbe7a19553c227872a5995ec3b24d",
    "network-33": "fd6b025889ace899b9d28fd3dbcc712ccaa256f5d33efc2afb0bd10a5867b678",
    "network-34": "3453bd439bdb1dff1dcd3456b7a384a859dd213e95015b0a6f076f27639c739b",
    "network-35": "2dc25bfeea65f55898b8d15a562231b8338f37b912470c63709ccac5a5bb8ce2",
    "network-36": "30c6a9aff6d4ae79320089947f7cd58edd6be1be0e4639b0ac6763d06a054160",
    "network-37": "289ebdb33dcaba7c5bdffa5bfeda815c5ba6e4ecd82767a7bb26ce42e4a5d68a",
    "network-38": "bee8041b3e0e5f965db233ae4905516dde4e60ae3915100d7ddaec359280761e",
    "network-39": "75577fcb83677ba4b7e08805746debe55b80a39e7f886fa86565025036e23a0a",
    "grid-2": "92855ea70aaafb83ba7a42ebc9762943a8fedd031609666b146dcf712e6ab54d",
    "grid-3": "6ff1400494bdda86915800b2a14bea2a3b15731e7920e53715451b04f0bbdeba",
    "grid-4": "9f312c94b2def38160e545fff819c593e644063ecc57010a8dbb00396f2ff02a",
    "grid-5": "798156bdb731b6aca19978e71ead1e7c9f527e4f0ecf26eea315c9ab7a9bd85b",
    "grid-6": "b51c7289a58fbe4b46ccc38770077f19b7f619b39aec6c6ebb23784cbb0f6c6f",
    "grid-7": "b6b324a0b343732a65e725d11be0a46fdc094cd979d951389e8a64f1c089b1bd",
    "grid-8": "638163e2a2ca1bca503db1325d408d1c1831cf92964f28b1ae8fe6351a225d46",
    "grid-9": "42f03f829936e99126bd718acccf43f45548bc38859d180196239a10f41d5c41",
    "grid-10": "bff320d0cd74310ab2bd3c4dcd72bb6d3da6eeef47217431bedf0be4ff25e61b",
    "grid-11": "b67535557038d02bd04c373ffa07af4da8e2da0e7d97f58c9b9420d4994434b4",
    "grid-12": "0a7199c090beca55f217dbfcd2d2e05207e360461fdf3ef0daba173fd64f65b6",
}


def payload(name):
    kind, number = name.rsplit("-", 1)
    if kind == "network":
        return perfbench_network_dict(int(number))
    return grid_dict(int(number), 0)


@pytest.mark.slow
@pytest.mark.parametrize("name", list(DIGESTS))
def test_network_meshes_are_pinned(tmp_path, name):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(payload(name)))
    network = geo.load_network(path)[0]
    sha = hashlib.sha256()
    for fid, mesh in sorted(msh.triangulate_network(network, 0.1).items()):
        msh.save_mesh(mesh, tmp_path / "mesh.txt")
        sha.update((tmp_path / "mesh.txt").read_bytes())
    assert sha.hexdigest() == DIGESTS[name]
