from setuptools import find_packages, setup

setup(
    name="repro-hagan-policy-security",
    version="0.3.0",
    description=(
        "Reproduction of Hagan, Siddiqui & Sezer (SOCC 2018): policy-based "
        "security modelling and enforcement for connected cars, with a "
        "fleet-scale parallel simulation engine and a declarative "
        "experiment API (repro.api / python -m repro)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["networkx"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.api.cli:main",
        ],
    },
)
