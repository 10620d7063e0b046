module dohpool/bench

go 1.23

require dohpool v0.0.0

replace dohpool => ../
