"""Setuptools shim.

The project is configured through ``pyproject.toml``; this file exists so
that environments without the ``wheel`` package (which ``pip install -e .``
needs) can still make an editable install with ``python setup.py develop``.
"""

from setuptools import setup

setup()
