package vm

// RunProgramUnfused runs cp like RunProgram but with every execution-array
// slot unfused: the oracle the fused interpreter is tested against.
func RunProgramUnfused(cp *CompiledProgram, opts Options) (*Result, error) {
	return runProgram(cp, opts, false)
}
