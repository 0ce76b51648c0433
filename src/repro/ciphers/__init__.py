"""Cipher substrate: every primitive the paper uses or cites.

Each primitive ships two implementations that are cross-checked in the
test suite:

* a *scalar reference* written to read line-for-line like the spec, and
* a *vectorised batch* version on numpy arrays, used to generate the
  hundreds of thousands of differential samples the distinguishers need
  (Gimli's runs as a compiled C kernel, with its numpy spelling as the
  bit-identical fallback).
"""

from repro.ciphers.base import BlockCipher, Permutation, get_cipher, register_cipher
from repro.ciphers.gimli import (
    GIMLI_ROUNDS,
    GimliPermutation,
    gimli_permute,
    gimli_permute_batch,
)
from repro.ciphers.gimli_cipher import GimliAead, gimli_aead_encrypt
from repro.ciphers.gimli_hash import GimliHash, gimli_hash
from repro.ciphers.gift import GiftSbox, Gift64
from repro.ciphers.speck import Speck3264
from repro.ciphers.toygift import ToyGift
from repro.ciphers.toyspeck import ToySpeck

register_cipher("gimli", GimliPermutation)
register_cipher("speck32-64", Speck3264)
register_cipher("toyspeck", ToySpeck)
register_cipher("gift64", Gift64)

__all__ = [
    "BlockCipher",
    "GIMLI_ROUNDS",
    "Gift64",
    "GiftSbox",
    "GimliAead",
    "GimliHash",
    "GimliPermutation",
    "Permutation",
    "Speck3264",
    "ToyGift",
    "ToySpeck",
    "get_cipher",
    "gimli_aead_encrypt",
    "gimli_hash",
    "gimli_permute",
    "gimli_permute_batch",
    "register_cipher",
]
