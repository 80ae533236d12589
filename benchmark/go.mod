module ooc/benchmark

go 1.22

require ooc v0.0.0

replace ooc => ../
