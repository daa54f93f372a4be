"""Domain lexicons, publishers, producer tools and categorical vocabularies.

The corpus generator composes scientific prose from these word lists.  The
exact words do not matter for the reproduction; what matters is that

* different scientific domains have *distinct* technical vocabularies (so a
  text encoder pre-trained on scientific text has an advantage, Table 4),
* math-heavy domains (mathematics, physics, computer science) carry many more
  LaTeX equations, and chemistry/biology carry SMILES strings and entity names
  (so parser failure modes hit domains differently, Figure 1),
* publishers and producer tools correlate with text-layer quality (so the
  metadata-driven CLS II signal exists, Table 4).
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Domains and sub-categories (the paper: 8 domains, 67 sub-categories).
# ---------------------------------------------------------------------------

DOMAINS: tuple[str, ...] = (
    "mathematics",
    "biology",
    "chemistry",
    "physics",
    "engineering",
    "medicine",
    "economics",
    "computer_science",
)

SUBCATEGORIES: dict[str, tuple[str, ...]] = {
    "mathematics": (
        "algebraic_geometry", "number_theory", "topology", "probability",
        "combinatorics", "analysis", "optimization", "dynamical_systems",
    ),
    "biology": (
        "genomics", "proteomics", "ecology", "zoology", "microbiology",
        "neuroscience", "botany", "evolutionary_biology", "cell_biology",
    ),
    "chemistry": (
        "organic_chemistry", "inorganic_chemistry", "physical_chemistry",
        "analytical_chemistry", "polymer_science", "electrochemistry",
        "catalysis", "medicinal_chemistry",
    ),
    "physics": (
        "condensed_matter", "high_energy", "astrophysics", "acoustics",
        "optics", "plasma_physics", "quantum_information", "fluid_dynamics",
    ),
    "engineering": (
        "mechanical", "electrical", "civil", "materials", "aerospace",
        "chemical_engineering", "robotics", "control_systems",
    ),
    "medicine": (
        "oncology", "cardiology", "epidemiology", "immunology", "radiology",
        "endocrinology", "public_health", "surgery", "pharmacology",
    ),
    "economics": (
        "econometrics", "macroeconomics", "microeconomics", "finance",
        "game_theory", "labor_economics", "development_economics",
    ),
    "computer_science": (
        "machine_learning", "systems", "databases", "networks",
        "computer_vision", "nlp", "security", "theory", "hpc",
    ),
}

# Prior over domains when sampling documents (roughly matches the mix of
# preprint servers in the paper: heavy on biomedical + physical sciences).
DOMAIN_WEIGHTS: dict[str, float] = {
    "mathematics": 0.08,
    "biology": 0.18,
    "chemistry": 0.12,
    "physics": 0.16,
    "engineering": 0.10,
    "medicine": 0.18,
    "economics": 0.06,
    "computer_science": 0.12,
}

# ---------------------------------------------------------------------------
# Shared academic vocabulary used by every domain.
# ---------------------------------------------------------------------------

ACADEMIC_VERBS: tuple[str, ...] = (
    "demonstrate", "propose", "observe", "derive", "evaluate", "estimate",
    "characterize", "quantify", "analyze", "measure", "compare", "predict",
    "investigate", "report", "confirm", "suggest", "indicate", "reveal",
    "establish", "validate", "examine", "assess", "model", "simulate",
)

ACADEMIC_NOUNS: tuple[str, ...] = (
    "approach", "framework", "method", "result", "analysis", "experiment",
    "dataset", "model", "parameter", "distribution", "sample", "hypothesis",
    "baseline", "benchmark", "procedure", "protocol", "mechanism", "structure",
    "property", "behavior", "observation", "measurement", "estimate",
    "uncertainty", "variance", "correlation", "significance", "threshold",
)

ACADEMIC_ADJECTIVES: tuple[str, ...] = (
    "significant", "robust", "novel", "consistent", "empirical", "theoretical",
    "experimental", "systematic", "substantial", "comparable", "optimal",
    "efficient", "scalable", "reliable", "heterogeneous", "stochastic",
    "nonlinear", "asymptotic", "marginal", "adaptive",
)

CONNECTIVES: tuple[str, ...] = (
    "moreover", "furthermore", "however", "consequently", "in contrast",
    "in particular", "notably", "therefore", "additionally", "nevertheless",
)

SECTION_TITLES: tuple[str, ...] = (
    "Introduction", "Background", "Related Work", "Methods", "Materials and Methods",
    "Theory", "Experimental Setup", "Results", "Discussion", "Evaluation",
    "Conclusion", "Future Work", "Acknowledgments", "Appendix",
)

# ---------------------------------------------------------------------------
# Domain-specific technical terms.
# ---------------------------------------------------------------------------

DOMAIN_TERMS: dict[str, tuple[str, ...]] = {
    "mathematics": (
        "manifold", "functor", "homomorphism", "eigenvalue", "conjecture",
        "lemma", "theorem", "corollary", "isomorphism", "cohomology",
        "martingale", "semigroup", "lattice", "polytope", "operator",
        "convergence", "measure", "topology", "fibration", "spectrum",
    ),
    "biology": (
        "transcriptome", "phenotype", "genotype", "ribosome", "chromatin",
        "mitochondria", "phylogeny", "homolog", "enzyme", "metabolite",
        "organism", "mutation", "expression", "receptor", "pathway",
        "protein", "sequencing", "microbiome", "apoptosis", "cytokine",
    ),
    "chemistry": (
        "ligand", "catalyst", "electrophile", "nucleophile", "stoichiometry",
        "enthalpy", "isomer", "chromatography", "spectroscopy", "titration",
        "polymerization", "oxidation", "reduction", "solvent", "adsorption",
        "electrolyte", "monomer", "crystallization", "yield", "reagent",
    ),
    "physics": (
        "hamiltonian", "lagrangian", "boson", "fermion", "photon",
        "entanglement", "superconductivity", "plasma", "dispersion",
        "scattering", "renormalization", "symmetry", "perturbation",
        "wavefunction", "curvature", "flux", "resonance", "decoherence",
        "soliton", "anisotropy",
    ),
    "engineering": (
        "actuator", "sensor", "torque", "stiffness", "fatigue", "turbine",
        "impedance", "voltage", "bandwidth", "latency", "payload",
        "composite", "alloy", "vibration", "feedback", "controller",
        "throughput", "tolerance", "calibration", "manifold",
    ),
    "medicine": (
        "cohort", "placebo", "biomarker", "diagnosis", "prognosis",
        "mortality", "morbidity", "etiology", "pathology", "lesion",
        "therapy", "dosage", "clinical", "randomized", "metastasis",
        "hypertension", "glucose", "antibody", "vaccine", "syndrome",
    ),
    "economics": (
        "elasticity", "equilibrium", "inflation", "liquidity", "volatility",
        "endogeneity", "instrument", "regression", "utility", "welfare",
        "incentive", "auction", "portfolio", "arbitrage", "heterogeneity",
        "consumption", "productivity", "unemployment", "tariff", "subsidy",
    ),
    "computer_science": (
        "algorithm", "complexity", "throughput", "latency", "scheduler",
        "cache", "gradient", "transformer", "embedding", "kernel",
        "parallelism", "bandwidth", "checkpoint", "inference", "compiler",
        "hashing", "consensus", "replication", "quantization", "pipeline",
    ),
}

# Named entities that are fragile under character-level corruption (the paper's
# "subtle but deadly" examples: pH vs Ph, hyperthyroidism vs hypothyroidism).
FRAGILE_ENTITIES: dict[str, tuple[str, ...]] = {
    "medicine": ("hyperthyroidism", "hypothyroidism", "hyperglycemia", "hypoglycemia"),
    "chemistry": ("pH", "Ph", "NaCl", "KCl", "H2O", "CO2"),
    "biology": ("mRNA", "tRNA", "DNA", "RNA", "ATP", "ADP"),
    "physics": ("keV", "MeV", "GeV", "meV"),
    "computer_science": ("O(n)", "O(log n)", "L1", "L2"),
    "mathematics": ("sup", "inf", "min", "max"),
    "engineering": ("kPa", "MPa", "GPa", "kHz"),
    "economics": ("GDP", "CPI", "VAR", "OLS"),
}

# ---------------------------------------------------------------------------
# Publishers, producer tools and their quality priors.
# ---------------------------------------------------------------------------

PUBLISHERS: tuple[str, ...] = ("arxiv", "biorxiv", "bmc", "mdpi", "medrxiv", "nature")

PUBLISHER_WEIGHTS: dict[str, float] = {
    "arxiv": 0.34,
    "biorxiv": 0.16,
    "bmc": 0.12,
    "mdpi": 0.12,
    "medrxiv": 0.10,
    "nature": 0.16,
}

# Publisher → domain affinity (used to sample a domain given a publisher).
PUBLISHER_DOMAIN_AFFINITY: dict[str, dict[str, float]] = {
    "arxiv": {
        "mathematics": 0.22, "physics": 0.30, "computer_science": 0.30,
        "economics": 0.05, "engineering": 0.08, "biology": 0.03,
        "chemistry": 0.01, "medicine": 0.01,
    },
    "biorxiv": {"biology": 0.70, "medicine": 0.15, "chemistry": 0.10, "computer_science": 0.05},
    "bmc": {"medicine": 0.55, "biology": 0.30, "public_health": 0.0, "chemistry": 0.05, "engineering": 0.10},
    "mdpi": {
        "chemistry": 0.25, "engineering": 0.25, "medicine": 0.15, "biology": 0.15,
        "physics": 0.10, "computer_science": 0.10,
    },
    "medrxiv": {"medicine": 0.80, "biology": 0.10, "economics": 0.05, "computer_science": 0.05},
    "nature": {
        "biology": 0.25, "medicine": 0.20, "physics": 0.20, "chemistry": 0.15,
        "engineering": 0.08, "computer_science": 0.08, "economics": 0.04,
    },
}

# PDF producer tools.  Each producer carries a prior over the embedded
# text-layer quality: LaTeX toolchains embed clean text, legacy office tools
# and scanner firmware much less so.
PRODUCERS: tuple[str, ...] = (
    "pdftex",
    "xetex",
    "luatex",
    "ms_word",
    "libreoffice",
    "indesign",
    "ghostscript",
    "scanner_firmware",
    "legacy_distiller",
    "unknown",
)

PRODUCER_WEIGHTS: dict[str, float] = {
    "pdftex": 0.30,
    "xetex": 0.10,
    "luatex": 0.06,
    "ms_word": 0.18,
    "libreoffice": 0.06,
    "indesign": 0.12,
    "ghostscript": 0.06,
    "scanner_firmware": 0.05,
    "legacy_distiller": 0.04,
    "unknown": 0.03,
}

# Producer → categorical prior over text-layer quality
# (clean, noisy, ocr_derived, scrambled, missing).
PRODUCER_TEXT_QUALITY: dict[str, tuple[float, float, float, float, float]] = {
    "pdftex": (0.92, 0.06, 0.00, 0.01, 0.01),
    "xetex": (0.90, 0.08, 0.00, 0.01, 0.01),
    "luatex": (0.90, 0.08, 0.00, 0.01, 0.01),
    "ms_word": (0.72, 0.20, 0.02, 0.04, 0.02),
    "libreoffice": (0.70, 0.22, 0.02, 0.04, 0.02),
    "indesign": (0.62, 0.22, 0.03, 0.09, 0.04),
    "ghostscript": (0.55, 0.25, 0.08, 0.07, 0.05),
    "scanner_firmware": (0.02, 0.08, 0.62, 0.08, 0.20),
    "legacy_distiller": (0.30, 0.30, 0.15, 0.15, 0.10),
    "unknown": (0.45, 0.25, 0.12, 0.10, 0.08),
}

PDF_FORMATS: tuple[str, ...] = ("1.3", "1.4", "1.5", "1.6", "1.7", "2.0")

FORMAT_WEIGHTS: dict[str, float] = {
    "1.3": 0.03,
    "1.4": 0.14,
    "1.5": 0.28,
    "1.6": 0.20,
    "1.7": 0.30,
    "2.0": 0.05,
}

# Per-domain composition of page elements: probability that a given content
# block is of each kind.  Math-heavy fields carry many equations; chemistry
# and biology carry SMILES and entity-heavy prose; medicine and economics are
# table-heavy.
ELEMENT_MIX: dict[str, dict[str, float]] = {
    "mathematics": {"paragraph": 0.48, "equation": 0.34, "table": 0.04, "figure_caption": 0.06, "smiles": 0.00, "citation_block": 0.08},
    "biology": {"paragraph": 0.62, "equation": 0.04, "table": 0.10, "figure_caption": 0.12, "smiles": 0.02, "citation_block": 0.10},
    "chemistry": {"paragraph": 0.52, "equation": 0.10, "table": 0.10, "figure_caption": 0.10, "smiles": 0.10, "citation_block": 0.08},
    "physics": {"paragraph": 0.52, "equation": 0.28, "table": 0.05, "figure_caption": 0.07, "smiles": 0.00, "citation_block": 0.08},
    "engineering": {"paragraph": 0.58, "equation": 0.16, "table": 0.10, "figure_caption": 0.08, "smiles": 0.00, "citation_block": 0.08},
    "medicine": {"paragraph": 0.60, "equation": 0.02, "table": 0.16, "figure_caption": 0.10, "smiles": 0.02, "citation_block": 0.10},
    "economics": {"paragraph": 0.60, "equation": 0.12, "table": 0.14, "figure_caption": 0.05, "smiles": 0.00, "citation_block": 0.09},
    "computer_science": {"paragraph": 0.56, "equation": 0.18, "table": 0.10, "figure_caption": 0.08, "smiles": 0.00, "citation_block": 0.08},
}

# Generic (non-scientific) vocabulary for pre-training the "web-scale" encoder
# baselines (BERT / MiniLM stand-ins) in Table 4.
GENERIC_TERMS: tuple[str, ...] = (
    "market", "company", "people", "government", "service", "product",
    "customer", "business", "school", "family", "community", "travel",
    "weather", "music", "movie", "game", "season", "team", "player",
    "election", "policy", "street", "restaurant", "holiday", "fashion",
    "garden", "recipe", "review", "price", "store",
)

AUTHOR_SURNAMES: tuple[str, ...] = (
    "Smith", "Chen", "Garcia", "Kumar", "Okafor", "Ivanov", "Tanaka",
    "Müller", "Rossi", "Nguyen", "Johansson", "Silva", "Kowalski", "Haddad",
    "Anderson", "Dubois", "Novak", "Sato", "Moreno", "Patel",
)

FIRST_PAGE_BOILERPLATE: tuple[str, ...] = (
    "Abstract",
    "Keywords",
    "Corresponding author",
    "Received in revised form",
    "Preprint submitted for review",
    "This work is licensed under a Creative Commons Attribution license",
)


def all_scientific_terms() -> tuple[str, ...]:
    """Union of every domain's technical terms (used for encoder pre-training)."""
    terms: list[str] = []
    for domain in DOMAINS:
        terms.extend(DOMAIN_TERMS[domain])
    return tuple(terms)
