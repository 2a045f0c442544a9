//! One module per figure or table of the paper, each with a `run`
//! function that prints it; those that compute with a seed take it.

pub mod fig01_breakdown;
pub mod fig02_graph_workflow;
pub mod fig04_quant_methods;
pub mod fig07_graph_designs;
pub mod fig08_chunk_length;
pub mod fig10_outlier_stats;
pub mod fig11_outlier_channels;
pub mod fig12_outlier_importance;
pub mod fig13_bubbles;
pub mod fig14_prefill_speed;
pub mod fig15_energy;
pub mod fig16_pruning_tradeoff;
pub mod fig17_memory;
pub mod fig18_gpu_npu;
pub mod fig19_ablation;
pub mod sec5_future_hw;
pub mod table03_matmul;
pub mod table05_e2e;
pub mod table06_accuracy;
