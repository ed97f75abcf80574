"""Every named case of ``tools/cases.py`` builds the instance text it was
recorded with, so that no case can drift under the goldens, the parity
corpus and the memory law that read it."""

import hashlib

import pytest

import helpers

cases = helpers.load_tool("cases")

# sha256 of each case's instance text
TEXT_SHA256 = {
    "rainbow-100": "8ce9e0cbf4717004a62bc2962d69aae3520f148556d61aeeb74346348a724138",
    "prune-100": "d21cefcac435acc4cd8397b7e42682057149d4f15f9416334ee8dcdec1624c41",
    "rainbow-140": "55871c8ae962b597bb2e3fc74ec0fe035016d59629289a77b378844c7cc85207",
    "factorized-60": "d1c7b483981ef818e352d04f203c2b21ad9d722f142032a0a2c28978de21b7db",
    "k-bounded-100": "c2eec62e7fc41e662b997e10834032cefdaabb94367575553fa2f991b07789aa",
    "palette-40": "6df206f35bceeadb5912543a99d02cbcf7e048b59edbdf006396fbf6681bdc39",
    "sparse-rainbow-120-seed2": "e2230071000efe96e5af83e1d59df114154d4587b0daff80b4e2753dc2fc4977",
    "sparse-rainbow-120-seed3": "3a8a03baace89e21579c6371bafbaa84b5a5ec4b214de8ceb0e3df6a1f2d056a",
    "fewcolor-4-seed9": "c0d38928af9076a5fbbf7cd16df6e20bfe2d9b306e61c3494bd0e49a708a96be",
    "fewcolor-6-seed11": "5a90ba7ee7f285897e02cd2594513ef1c3f544e231dac037ce6571f4bfeaa40a",
    "fewcolor-8-seed5": "1a6df93403bff96dd50c3a13c009044ef03950db73ac571ee4a0c13cfa9059bd",
    "fewcolor-8-seed13": "39eab9b4e10d701f367a34931e7a280ca426c6a1f0acb5e57b2feba699f27070",
    "impossible-300": "8b4e1ea959a04c9c1bc2a8680fe630dbdcb4d5763672d1965cf2a6869c9277ea",
    "many-layer-400": "826eea850dfccef9683da2aa28fcabbdb2e9dacabdcdbf9332b57c8ffeb2a21c",
    "rainbow-600": "7cff2028bd81babce89fa15c62e84cfafabc8475160993e76d01bee29b9a3f58",
    "rainbow-1200": "26725c51beee5d188b44e3ae36c8638d3f1fdb69a713c3543760eb84c60d8c03",
    "rainbow-2000": "c74b2e495c5641b29bf68d932ff7c7aadd10bb1a84d2adf5d8e38adab5f0d4e4",
    "deg20-2000": "17346a4f832a934813735829e129d0022ff81b5d9b382e87b7bd17f1f9e05a49",
    "deg20-4000": "e74d2694bf8587ff53757d1d2c6d0e15d005e14eb03dc941c9566a616fc221e2",
    "deg20-8000": "59e8125f58f761a3e300e80ae66c9c042c7610dda914d60dcee3fa6f5b79e851",
    "chords-1000": "b85dd8a5d0c5ea2a64146e66dbaa4a0435dab469a2d336a9d36dcecccadb89eb",
    "chords-2000": "d636858ad654d2d0e114f071958a7383aa2a24d8c854ab0b5e5fb4e91b7a9d35",
    "chords-4000": "b5771dd69a78ca741ecc6c7fe7ba455fa1fd85e7adb1d6e1c195cdefbb70e3b4",
    "chords-8000": "98039485ffb61691d2dd8c4ae36680c6bac0378b7571d4ca86e76b869e8edadb",
    "small-0": "125ab42a907505eabe89a2b3c78785195730516bf26938a92c52e7580bd16a7a",
    "small-1": "2785fc7ed626e2eccf320c874f4434adc9922808c3801342921911b6aed8cbe5",
    "small-2": "f2fd4837dd00b22639557c5b79923f64115b4e72f8aa344f62aae8320c3469a4",
    "small-3": "75f442307249261605457cb57f078ba5a3e81b12af7d22e99c85db5186ba6cf5",
    "small-4": "61dcf252f04b527985cf13e0e8cdd00426da6ce3ff7f79eea2f31c8609073e91",
    "star-16": "04c609878833bb1a282e5d07e496a9a4aec17372b3718f70ddb2f3ca5bf63e3d",
}


def test_every_case_is_pinned():
    assert list(TEXT_SHA256) == list(cases.CASES)


@pytest.mark.parametrize("name", TEXT_SHA256)
def test_text_sha256(case_files, name):
    inst, _ = case_files(name)
    assert hashlib.sha256(inst.read_bytes()).hexdigest() == TEXT_SHA256[name]
