"""Bit-identity of the network meshes over many networks (marker ``slow``).

Run with ``python -m pytest -m slow``; the default run deselects it.  The
networks are ``perfbench/network.py`` seeds 0-39 and the grid networks of
``grid_dict(k, 0)`` for k = 2-12, meshed at ``--h 0.1``.  ``DIGESTS``
hash the ``save_mesh`` bytes of every fracture's triangulation, fracture
by fracture; they were taken from the fracture-by-fracture mesher that
the batched pass of ``triangulate_network`` replaced.  ``PREPARED``
hash, in this order, ``build_network``'s lines and points, the
breakpoints and ``xi_breaks`` of every line, and the ``save_mesh`` bytes
of every co-refined, split mesh after ``prepare_problem``; they were
taken from the line-by-line merges and co-refinement that the batched
passes replaced.
"""

import hashlib

import pytest

from dfnvem import assembly as asm
from dfnvem import geometry as geo
from dfnvem import meshing as msh

from _util import network_outcome, oracle_network

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


PREPARED = {
    "network-0": (
        "a07f58691f6837404301dc9eee9ca6661f7a4f32d80e4fa1de1c3520893ceb36",
        "b490f5194c07b70b706f9c2363925aff1b83e5b64c4f2e0a9f4b2a815f0e3501",
        "3ba757a3b5e079057659c1a2bf30941c07f11bf0dbb54e7145987059b55c0929",
    ),
    "network-1": (
        "06b232b4a5609dfdfcbc81787df3b3a373b388725861d48e1929c03666bc08b1",
        "c7cf9d3986f96b47da01fa374102f334d501b10fb609a613d0c47416852ee0b8",
        "7008930cbd71ec70eb7570214e2d1b7e03614da5f232cd4d0e5e74f8bafd2fb9",
    ),
    "network-2": (
        "e07c4b1110e9afc48c168eaf6d438539621e05b7d2348476692fb76cb464fffa",
        "ebfba9590e12024da1345691aa1151e6f4eaefba046540acc5c3cff5a999c79a",
        "8509ee494ccf11ae38ad052e6b5411119b452f7f015752efa456241d8f658e0e",
    ),
    "network-3": (
        "a4f8424e593e238a106a59e7c8c7a8c051fe09b0e31b7996734024cd8d585d06",
        "9a576ebc10c957348b205662a7579bcb5b5bea29e6c3ac7719020aead0e95ec3",
        "3eaa2c7ecef496dc0dfdbc7ae04b1a93ddad97dbd9c1c24bd689382759f82273",
    ),
    "network-4": (
        "5bf270a41e35767d1948f762ce3426a0d86fdd7c3acd31c87560e56c14696e0f",
        "338e3cd34fde8df88fd992ec73c54f39deda76f6ef5fed3a88f920df49d2b3c1",
        "a8519e84d704f385644e392ac3833ef80c2c22a65272a6a8aa0760bfe6d9eaec",
    ),
    "network-5": (
        "a22b2a2cbf11f57050f9fdbfd9a73fb3a89e34c7a0f80b751a7fa71088ecc179",
        "e51e72501e71c04e51b42be6c8d563b1db1e27f4169e4dc8cd47fd987b867eb4",
        "5530e0b750e84309545b62c613be585a9ecf289fab032f91dd4c7d77f6ac8c76",
    ),
    "network-6": (
        "63698f720b2113ecb86bd8bfcf0cb98fb9b2dacae6cd21ddbc6ce0d5180afceb",
        "01b876ef53530e70d70b130a1e5bb27170e30eb987d1bb9130b2b4c3ca5cc1c3",
        "a34361669a4557984c808c8100774b0f904f2d136293c5d909d0b6125d23f4a6",
    ),
    "network-7": (
        "7ba67b09d47ab47848686d4711f8de189ce1bcd40f9e247faeb981258088896f",
        "5b48746dd44f9ef6c4e25b1ed9720a3ef9120e5b85b765887e3ff24e113c3e3a",
        "044c6da022e3209ae727761d8eb38830c717e22a409e2564322263e86882f74d",
    ),
    "network-8": (
        "eb2f2d7cc62e2d75059e0d59111b6b27d599a4ee1514f2984b90e7949ee9f76b",
        "da4f01aa272077870832cd46e0e2f2e1d051075dcf041eaee47e6d656c1e78fc",
        "9737b7fcb82721cd7f4df4ed69ad0a064dabfa1704aa0884df18ac09f2eefb1f",
    ),
    "network-9": (
        "b53c4975f05a2ca2de43f85fd1b1fdfa54b16dc5cba92d668934a8b0fe082ce1",
        "f3f37e2450b8e7cd80a502a61d4d4e7dd29d38782fc14c1c625384a02e6c9aff",
        "4d528ab6e29dff1e59be3a764fbae660ab95f9edb857537070aa954cb800e947",
    ),
    "network-10": (
        "e77a34473950fb636a4e09cb3a953962dbe7f137ca361271e07b72ef519df0ea",
        "dcdd5f4666f57dd553c1a752547c14075653dc78806d6f3f10a99cd870c6558a",
        "d02265eec8113624f5442fdd180a665da2a27ac0781c18776d462edf2f634336",
    ),
    "network-11": (
        "8c29da1ff2f987ac847568c66a1d3f8bff75144388731ee3c44c10e3cfae46a7",
        "bd4945f84c6f9850e332387a1d0033a82341dfed37a305824b5b3b036a4eb259",
        "a885bae1aa8bc0f3a56c0b89c80c5c165f07e9af3f8247b5b3f42162e5ec8f8c",
    ),
    "network-12": (
        "d3cb607d92634733ca9f9a6cedfb0d6c6dd912865d9190b5d211a134785e7b0b",
        "bb555f1a1f41adf6a297f3c17948557df912106227333256eba9d05dbc6697d7",
        "b1458676eacd05235be2a0c050fbbdf57c5fdaa2a9c2c48d527dc44c730f2d06",
    ),
    "network-13": (
        "b1719809acc85ed3e08ab3c65008716cb6b8c91ae4ca558aa6010024c68218b4",
        "5ea8620fc99c3fa5d0bed19882c2106ec76b59f696014c16f4c102ce31e3f83f",
        "88a2d81ebeb577757cd5cf1cb4163af6643e363c66ad9731e448f259b1e29d6c",
    ),
    "network-14": (
        "986c3aefa6fe8621f0efc2065efc077e75f695b9cc0c9e7c301d0a12391c041b",
        "ab485531c9c3b51c7fbe03eb90ee100b61a2d4c1dab6194cab95277e55216ac6",
        "d8c99df08cef8bff23484c23b79087306da9cb11362ecedd9a9cfaa949eb4992",
    ),
    "network-15": (
        "4d3fc1cd997d6d307ef3308e6e3845788f008020de723daff614ce51827ba7c7",
        "fdac62199ee7d164536a8c29ffcdfc02d81336b9e0555f78b507c73531f7d245",
        "6d37234742a012d90e47b4becb13174b3905ff0d5c733dfe601da7890370eefe",
    ),
    "network-16": (
        "c2d37f593f7686b4e288708c64a9f4504855b4f192c1f469ba1646c6fef3992c",
        "0f9bf3c9d5725012ee329e667cc3d0497ebfcb23d6d7871213bcaf5267f68751",
        "cd5a7c860922b9339a4b79a77e7ac7c2cbaf5a4b4c2ef068e2a39f4de9bafb61",
    ),
    "network-17": (
        "909ab87d494ddfb2b4e0f5811b2724bedd5547878ff2669d47c1cac15675cd32",
        "4b2c2d2f93e6e4c726dc1fc352939fa8fffa1a9b3ead92f2824266cf622877ce",
        "688b4b506dce4bb7e3869b876dcbab5ca91309f1387a768a1ee0d7c533fb6d92",
    ),
    "network-18": (
        "2c4ce41a835c3803944931129e0daa4b0a0ec1a0ee75f773e380f8486af94e22",
        "026f5098715e394e6c89131bc0753bf97ba275ab4599b03c0b266e4de8942ffe",
        "bc07e4735b7dcb2841b27fbc7ebe310ef82fc54b507dc3dbac08d3ea3261119d",
    ),
    "network-19": (
        "68d67fe2597db4b7fcf62cd45c3951db27fb0614cdfac1ffe8a8a25aa06c08a8",
        "52de25f86173924c04bf0c3663d03231b50c0eadcb0f61c9c5e790136fa3ca47",
        "0279f979b4a41683f4770f1d86d7e0e0f04990c5cd58dfe2864f7925b1465c4e",
    ),
    "network-20": (
        "e44c1a8d228816410ead3a241a3f8476044d07bfa0d7a38ee9830845b1e1dff7",
        "4137b294686852d1e0e7b6108f6d19083410da97e04b506f0cedb60324d84747",
        "bbb6844c6299ce24ae69a7619504ac272a3a39e4a07b6c0f404047c6576758cc",
    ),
    "network-21": (
        "eac161cd21b45820722add5499afd2819e8526acfbaebf08582413f925cb918d",
        "b396968dbbb4477198a69041a74662f956af3b327a4de9d1f68c156dec427cc3",
        "99fb97488ec6cff76bddee13bcb27a17520a23bb72d2d8c137b12852c4fe3653",
    ),
    "network-22": (
        "b28b0fdfb8f94b601531ac536239b04aad9f214db3b7ef3f3f0bf3225ba0e643",
        "414811bf1a3827bf44c0834d23ef6a61b1be00d9dca609179aadc35c7163ede8",
        "86c9ba2a5313e1f8e8c679fa73382fba0a700a128f511620d431b6f2dfd8faae",
    ),
    "network-23": (
        "1b870cf3156d814b81ec6cc9059daffaeaa0cf4a47841eed7131b7070946ff68",
        "690d1e7d010e2c834d93f728251df369568b8a32d74a01f5452633678bbfaa03",
        "aebb5075c311a3bd8d1a210b7afe9a4323fb1f75daf04f6279b48723b9d8f4f2",
    ),
    "network-24": (
        "d364567baeda45375f5085df9655c3cf16667922df373ca521dd0b747f7015cd",
        "47a30398a93ac13fc56b138514b46047f740e464ebccc0b67613017116027299",
        "fadec65974589c6093f776ddef61f98f1ff5be7589c71d311878620fc9986f5b",
    ),
    "network-25": (
        "f771c79caa044a42e6afc68655198ff1daf5cb2d18c9db8537ddabd68d9c0c92",
        "c7239bd9b9c897881353359c34acf4e78a6a18bb76752dcf867687d47fad321c",
        "97f7929e45b9efce66646110a7d543c84ece1b254d4b9eb607e90d88761f6619",
    ),
    "network-26": (
        "a86530c199d69a35f35d4b0c13c564ff7d63106b45b8f5c543968a57d29f7bf0",
        "4e21da07fa0511d3bf6a2263f9e86d1db3ba07d067fb7ca4550b0048abaca417",
        "87d8576284596a21aed08a67e9af5d9d1c67db8e60bc5eba49861b9f457f0d68",
    ),
    "network-27": (
        "574f2944ccb948de56817271ce9d07f05f4fd14f0bf35ce9361f4a63a90d6a9d",
        "2ab6a0db157d0f295dddeab5d2d8841253a911ed8b49aacd0a072085c72da73b",
        "99dfee38099c506d03b33859cd6243f92b07758fa17fb4f698e39238284fdb6c",
    ),
    "network-28": (
        "af57619c375bd669a1bc108663ee0b3432c84402505e96cd5ab28173f4db77e8",
        "f5449308bcfa21a51aac27c843ac03217d8f63b521c00fe5d02aeb19138c3b04",
        "5d39cb0572b5eb475b639d037d9dc2def037de7b51ec9fb30cbd16628a88d200",
    ),
    "network-29": (
        "d91af6a9ea450d1be19e82f9215f8764024a19cad59f92f94b8ab8889ac9d258",
        "c81ab524606706bb4c14290b7b9bba44cbe4946ec0d725a8126ba032f9ebac3d",
        "7ecd974ecd35b8cfbd34f21bddab4a27df3792e6f41bfe63d0da26c4f5d1e168",
    ),
    "network-30": (
        "95caae2a949051d970c8086125597ce1222fd6d48362db2e3c85c80b3646cdfc",
        "16398a34acefef35b520ce59068f10993194fcaee7d5a6481bea18c6ab6d17f7",
        "dc54515af364d653c31a2a415163286cee0cfa9f94849baf5f199ac95e466863",
    ),
    "network-31": (
        "dbe85eb39f3893d2679797f76599d3c6d9033c3d94561bf15ba770a836295813",
        "9827b33f291cf57d6d7e5560227b38a9af8fc5413a0509f72c590fd2efdf7d72",
        "51333c3ffe491f9101224cd7a11e36b3f9e031ecb9dd1fcd8d889322d6c296cc",
    ),
    "network-32": (
        "f4daaae84bc66de578ba8d6416f1779d24b6a601962b388b1f4f1d8c0dd1edeb",
        "c52e25b287ca3f4aafcdacb3f199977fdbf9e0ae9180515d9e6be5566888f817",
        "15ee5ad073efd847a4724a09ccff7b05d8a6d93b245ac718e5a9aca5ed4a22d3",
    ),
    "network-33": (
        "4163bb2261d3ef49f14bedc285ca6c629030f1aa5797ad694dadbe9fb666a8e5",
        "9909cf2676bc9bf7a7fdfea0c5bc89f5a7a5a254166a426d3630318e46622b08",
        "47374d1fda7741712dadac095e63806e07223656416279c954c91397367d8a6d",
    ),
    "network-34": (
        "ec72e629a05a20c561ddb756887b8f5e9c9829cb99c05bc60a63cb143ed113f0",
        "720c6621ea0dd096e961d5dddb6905c071cb49d687cb2b48cf049105d18798ca",
        "f0fb14c26f6b342af1871d6207ebd64207a33da46104a5c18ddbac444e7f2e59",
    ),
    "network-35": (
        "394b660ba776f49cdf6062ab69f79774f9d8ae5cabb162976a25a8529d4b3f15",
        "3b8b9773074aedc0cdc9ff292c4ee1f5a6935ee0cca515d7867e75113985ba3a",
        "963fb26410c87e6dfe0471cc1650c8326578c906fcf11c7525c7c89c7d11697a",
    ),
    "network-36": (
        "4aba1d9aa5c56e92afda838c53c9b9d36dbbbb803f0fb1f727d4b657449bdf54",
        "875f7d33aa981d68d1174092b863a07403ba1d404a038126d3ff4e66687b4ce7",
        "8efb0124a708641fcc4841ea253a14fa970970d1833b53e4d8c36bd48debf007",
    ),
    "network-37": (
        "c89a65bec4a7236cfff345ce1b21a627df06b57b370fe663195a430c5e3e8646",
        "1f14934e74f7f26c16ee2032f3670332240ddb9fdf5b978406803eb3e9db447f",
        "142fea917393d35b7b328792576952ebd28eb6f94cee786b080b9e53f728bc32",
    ),
    "network-38": (
        "431701aa300e05900e1697e7e610dfb3a9a7d820c89b1049a924d40c9cc1ad00",
        "81e6f90a634a8ada08770d8b55a96cff1be6745a7ca564226ab369c2dc4f9798",
        "63a40124136ed1472302e88b217759cb357bddf2f2991e431812704f8969be57",
    ),
    "network-39": (
        "5e9462b723eb9d264853b541295355fca72f21ad160215b3f3c7d43a29934a8f",
        "5b9ce3d8bf83e3d29fbdcbe948b83b7814420c5c4b970861a0f54191ff396ca9",
        "bde9e59858f6f29d8d48d11c61c3f213b62364207c602b0f88fc00c1aa3cc624",
    ),
    "grid-2": (
        "1cb0cd752874aa008f7b1c72eae65b655fe40052686b4c29a41f56df3df873d0",
        "4cb943bd0add9c405a3537cea1f2fd32335eb8d7d675ea5e93f1edabb6954c42",
        "96e0621fc26249df8ddf318bce8a369705d3493c4c6afbcf253b092f6993261b",
    ),
    "grid-3": (
        "7765467031bd8570f4470d6a46b066f84e025e51ee9fcf41e0bb33ec642a2429",
        "a5e1ac6efd5a52854e0fb3634e075afe587bd2767b8b82693b768fc00bc4dc42",
        "4cb0d47966f72237d247785da163c0a53f85b9c52cb0e43055b6cebe30e9850a",
    ),
    "grid-4": (
        "bb350ce00d62cf64ba4f60a3fa9c8f73d979aaf3f87e317bb8409fab0de1cedb",
        "3b8572b430fa3a35885451a30cf32b6c512cdd2a2778c2fe72e5d8cf2809af7e",
        "1e3c8a51f0c7f1c986224b50d9324ce304eff809a8f27f9af17ff7a1343211ca",
    ),
    "grid-5": (
        "e0114425c0405917fdae9d5c49361e2972a66c183a926a03c8b0840772eaa71d",
        "66c964757776963beee108974b70ac97802d4637d984f5a67e821174a884d5d8",
        "2032a977935ab10df9cb597e84c3319b6edccd6b24e1fd753b929efb4be37fb7",
    ),
    "grid-6": (
        "7c73df38c300787bd463fb367f303a86ac3fdfab185ab0b636eb138966b0dacb",
        "f3d67d755c4ad192586904e44fd12cd549893c45a9bf615f69c6a9e0363771a5",
        "96da2a489401fd5ad35731b41b27b16019f1253fed3103c676b9237f03412259",
    ),
    "grid-7": (
        "c1bcf8f4109b9ddccd048805016bfd5b4d7c2399c45b5040c5ea5f95ee218eda",
        "e80af5cb69246693bfd376576fde4d6426d4c252891c8e9674cf7f0833f25a9d",
        "edf0a3a891486636859fc78752130ffe9b22d3b61d0d5402e79625a4a8b263a6",
    ),
    "grid-8": (
        "3cf9aed846d17a1bf4422bc091a24077cf773d7ebf963b86cf61f64cbb937dac",
        "17a0a93b04d4bcd04809c11bec87b2c6fbe673b7f5c0564c68b44d21774713cf",
        "39c3e01d0f549784896ad550b59f1a1d305448abc287a82763c58bb5a480b223",
    ),
    "grid-9": (
        "e151affacd0a57ed8447fd675a8019bbcb09d1928f58003842750eeb73f5cba0",
        "e5f1a95d4d69ddbb94643c4ac1b30861fbe731b911c0e07512e092f70bc52029",
        "5eadb45a788350be931a1e84e9f244852533cb8b41c6676ac888a7824db8b920",
    ),
    "grid-10": (
        "c4b457445435246e00e9452dfa11eaf054b4c44dc64c3cc5dd3228cca254a590",
        "40d3983a20b5c56989c31394e031bbb5beeb02bc5b61762359773538dd33da1e",
        "f38ffa280b281ab58688eb60149e2504ff5d6e9cd90a127a58e47fba42002697",
    ),
    "grid-11": (
        "2dc807ee6a7b5255ea9e4d209a69e5bb00b67f8ce30f5a5e5f8f95c84a634db2",
        "5dfb5649adf835c7620dec4d36e688cea1474357a0e78bf4d70cae482f1684d1",
        "991812b40f187c31c028e88344fc0618475dab5d9ece777670bc3bca95a446a7",
    ),
    "grid-12": (
        "aed87855288d27f3f8a180c8425ddf12b4ba5924c7c0ac19df1dcf5c0405ff99",
        "464c31d65bb530458598fdc63a5f8b9b44e0af0c0634d66172b8e5855e63cf76",
        "1edf74b8c08e1ff4bd32d1a0cef2f6bd5d3cf1b4dc849124b973f364399c185a",
    ),
}


def mesh_digest(meshes: dict, path) -> str:
    """sha256 of the ``save_mesh`` bytes of ``meshes``, by fracture id."""
    sha = hashlib.sha256()
    for _, mesh in sorted(meshes.items()):
        msh.save_mesh(mesh, path)
        sha.update(path.read_bytes())
    return sha.hexdigest()


def digests(tmp_path, name) -> tuple:
    """The triangulation digest of ``name``, then its ``PREPARED`` ones."""
    network = oracle_network(tmp_path, name)
    built = network_outcome(geo.build_network, network.fractures)
    meshes = msh.triangulate_network(network, 0.1)
    triangulated = mesh_digest(meshes, tmp_path / "mesh.txt")
    problem = asm.prepare_problem(network, meshes)
    traces = hashlib.sha256()
    for _, tm in sorted(problem.traces.items()):
        traces.update(tm.breakpoints.tobytes() + repr(tm.xi_breaks).encode())
    return triangulated, (hashlib.sha256(repr(built).encode()).hexdigest(),
                          traces.hexdigest(),
                          mesh_digest(problem.meshes, tmp_path / "mesh.txt"))


@pytest.mark.slow
@pytest.mark.parametrize("name", list(DIGESTS))
def test_network_meshes_are_pinned(tmp_path, name):
    triangulated, prepared = digests(tmp_path, name)
    assert triangulated == DIGESTS[name]
    assert prepared == PREPARED[name]
