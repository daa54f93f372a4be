"""Setuptools shim.

The canonical project metadata lives in ``pyproject.toml``.  This file exists
so that the package can be installed in editable mode on minimal offline
environments that lack the ``wheel`` package, where ``pip install -e .``
stops at ``invalid command 'bdist_wheel'``: ``python setup.py develop``
installs the same package and ``adaparse-repro`` command from the same
metadata.
"""

from setuptools import setup

setup()
