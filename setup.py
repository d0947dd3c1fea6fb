"""Build shim: the package is pure Python, so this only defers to setuptools."""

from setuptools import setup

setup()
