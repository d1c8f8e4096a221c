"""Legacy setup shim so editable installs work without the `wheel`
package (offline environments: ``python setup.py develop``).  All
metadata lives in pyproject.toml."""

from setuptools import setup

setup()
