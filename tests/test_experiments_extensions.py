"""The experiments CLI refuses names that are not in the registry."""

import pytest


class TestCliListsExtensions:
    def test_argparse_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["not-an-experiment"])
