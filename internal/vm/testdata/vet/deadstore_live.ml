// Stores the effect analysis must keep: a read that may alias the cell,
// a read through an unknown address or a sys op between two writes keeps
// the first write alive. A read of a provably different cell does not,
// so only the store at line 17 is dead (V007).
fn main() {
	var buf = alloc(4);
	var i = rand(4);
	buf[0] = 1;
	print(buf[i]);
	buf[0] = 2;
	buf[2] = 0;
	print(buf[buf[2]]);
	buf[2] = 1;
	buf[3] = 1;
	syswrite(buf, 4);
	buf[3] = 2;
	buf[1] = 1;
	print(buf[0]);
	buf[1] = 2;
	print(buf[0] + buf[1] + buf[2] + buf[3]);
}
