import pb_ref


def test_reference_kernel_is_fixed_work_and_times_every_call():
    data = pb_ref._make_data(2.0)
    assert pb_ref.kernel(*data) == pb_ref.kernel(*pb_ref._make_data(2.0))
    assert pb_ref.kernel(*data) != pb_ref.kernel(*pb_ref._make_data(0.0))
    times = pb_ref.block(0.0)
    assert len(times) == 1 and times[0] > 0
