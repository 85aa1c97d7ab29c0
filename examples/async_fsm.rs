//! §4.1 mechanised: compile asynchronous state machines straight from
//! their next-state truth tables onto the fabric — C-element, D latch and
//! a custom 3-input join, all through the same ASM compiler.
//!
//! ```sh
//! cargo run --example async_fsm
//! ```

use polymorphic_hw::asynchronous::asm::{synth_asm, AsmSpec};
use polymorphic_hw::prelude::*;

fn run_machine(name: &str, next: &WideMask, sequence: &[(u64, &str)]) {
    let spec = AsmSpec::from_next_state(next).expect("stable spec");
    println!(
        "{name}: S = {} cube(s), R = {} cube(s) after hazard-free repair",
        spec.set_cover.cubes.len(),
        spec.reset_cover.cubes.len()
    );
    let mut fabric = Fabric::new(4, 1);
    let ports = synth_asm(&mut fabric, 0, 0, &spec).expect("compiles onto 4 blocks");
    let elab = elaborate(&fabric, &FabricTiming::default());
    let mut sim = Simulator::new(elab.netlist.clone());
    // start from a resetting input
    let reset_input =
        (0..(1u64 << spec.n_inputs)).find(|&m| spec.reaction(m) == Some(false)).unwrap_or(0);
    for (v, p) in ports.inputs.iter().enumerate() {
        sim.drive(p.net(&elab), Logic::from_bool(reset_input >> v & 1 == 1));
    }
    sim.settle(5_000_000).unwrap();
    for &(m, label) in sequence {
        for (v, p) in ports.inputs.iter().enumerate() {
            sim.drive(p.net(&elab), Logic::from_bool(m >> v & 1 == 1));
        }
        sim.settle(5_000_000).unwrap();
        println!("  {label:<24} -> q = {}", sim.value(ports.q.net(&elab)));
    }
    println!();
}

fn main() {
    println!("asynchronous state machines compiled from truth tables\n");

    // Muller C-element: Y = ab + ay + by over (a, b, y)
    let c_el = WideMask::from_fn(3, |m| {
        let (a, b, y) = (m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1);
        // the canonical majority form, as in the paper's c = ab + ac' + bc'
        #[allow(clippy::nonminimal_bool)]
        {
            (a && b) || (a && y) || (b && y)
        }
    });
    run_machine(
        "Muller C-element",
        &c_el,
        &[
            (0b01, "a=1 (hold)"),
            (0b11, "a=b=1 (set)"),
            (0b10, "a drops (hold)"),
            (0b00, "both low (reset)"),
        ],
    );

    // Transparent D latch: Y = en·d + ēn·y over (d, en, y)
    let latch = WideMask::from_fn(3, |m| {
        let (d, en, y) = (m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1);
        if en {
            d
        } else {
            y
        }
    });
    run_machine(
        "D latch",
        &latch,
        &[
            (0b11, "en=1 d=1 (follow)"),
            (0b01, "en=0 (hold 1)"),
            (0b00, "d=0 while opaque"),
            (0b10, "en=1 d=0 (follow)"),
        ],
    );

    // Custom: 3-input join that sets on 2-of-3, resets on none.
    let join = WideMask::from_fn(4, |m| {
        let ones = (m & 0b111).count_ones();
        let y = m >> 3 & 1 == 1;
        match ones {
            2 | 3 => true,
            0 => false,
            _ => y,
        }
    });
    run_machine(
        "2-of-3 majority join",
        &join,
        &[
            (0b001, "one request (hold 0)"),
            (0b011, "two requests (set)"),
            (0b010, "one remains (hold 1)"),
            (0b000, "all withdrawn (reset)"),
        ],
    );

    println!("every machine above is 4 fabric blocks: polarity rails, product terms,");
    println!("S̄/R̄ combine, and a cross-coupled NAND core closed through lfb lines.");
}
